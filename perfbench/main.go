// Command perfbench is nvmap's end-to-end and per-layer benchmark. It
// drives the public nvmap facade and the nvprofd HTTP handler from the
// outside, generates every input from the workload seed, checks every
// answer, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics from the benchmark's own
// spans around each layer call and write the spans out under
// .bench_build/traces. Run it from the repository root through
// perfbench/run.sh, which builds it; README.md there lists the
// workloads and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings. The test-only fields plant
// defects the self-tests must see.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
	setups   int // set-ups made; setup_s is their median

	delay        map[string]time.Duration // busy-wait per wrapper name
	skewExpected int                      // added to every expected count
}

// tracer returns the tracer a measurement window records on, carrying
// any planted delay whether or not it records.
func (c *config) tracer(on bool) *tracer {
	t := newTracer(on)
	t.delay = c.delay
	return t
}

// workload is one benchmark workload after set-up.
type workload interface {
	// measure runs sessions for d, recording spans on tr, into ph.
	measure(d time.Duration, tr *tracer, ph *phase)
	// close releases what set-up acquired.
	close()
}

// serialRunner is a workload whose sessions run on a worker pool:
// serial runs the same sessions single-threaded for d into ph.
type serialRunner interface {
	serial(d time.Duration, ph *phase)
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name string
	// limit is the latency limit of slo_miss_ratio.
	limit time.Duration
	// engaged lists the engagement checks: counter name → whether the
	// workload must drive it (nonzero, or ≈1 for a share) or bypass it
	// (zero).
	engaged map[string]bool
	setup   func(cfg *config) (workload, error)
}

var workloads = []workloadDef{
	{
		name:  "profile-distinct",
		limit: distinctLimit,
		engaged: map[string]bool{"nvmap.source_repeat_share": false, "machine.parallel_regions": false,
			"daemon.dropped": false, "diagnose.probes_run": false},
		setup: setupDistinct,
	},
	{
		name:  "profile-parallel",
		limit: parallelLimit,
		engaged: map[string]bool{"nvmap.source_repeat_share": true, "machine.parallel_regions": true,
			"daemon.dropped": false, "diagnose.probes_run": false},
		setup: setupParallel,
	},
	{
		name:  "serve-mixed",
		limit: servedLimit,
		engaged: map[string]bool{"nvmap.source_repeat_share": true,
			"daemon.dropped": true, "diagnose.probes_run": true},
		setup: setupServed,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// phase accumulates one measurement window's outcome.
type phase struct {
	lat       []float64 // ms, sessions that passed every check
	diag      []float64 // ms, diagnoses that passed every check
	attempted int
	failed    int
	sloMiss   int
	failures  map[string]int // failed check → count
	sessions  int            // sessions whose layer counters are in counts
	elapsed   time.Duration
	peakMB    float64
	alloc     uint64
	cpu       time.Duration // process CPU time
	// counts sums layer counters over the window's sessions; the
	// per-layer metrics divide them by sessions (or diagnoses).
	counts map[string]float64
	layers map[string]float64 // workload-specific per-layer metrics
}

func newPhase() *phase {
	return &phase{failures: map[string]int{}, counts: map[string]float64{}, layers: map[string]float64{}}
}

// settle books one attempted request: failed names the checks it
// failed (none for a good answer), latency is its wall time.
func (p *phase) settle(failed []string, latency, limit time.Duration, diagnose bool) {
	p.attempted++
	if len(failed) > 0 {
		p.failed++
		p.sloMiss++
		for _, c := range failed {
			p.failures[c]++
		}
		return
	}
	if latency > limit {
		p.sloMiss++
	}
	if diagnose {
		p.diag = append(p.diag, ms(latency))
	} else {
		p.lat = append(p.lat, ms(latency))
	}
}

// absorb adds o's attempts, failures and layer counters to p.
func (p *phase) absorb(o *phase) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.sloMiss += o.sloMiss
	for k, v := range o.failures {
		p.failures[k] += v
	}
	p.sessions += o.sessions
	for k, v := range o.counts {
		p.counts[k] += v
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's full outcome: the result line plus the human
// readable lines printed before it.
type report struct {
	result
	lines []string
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.printf("  %-32s %14.6g %-6s %s", name, v, unit, note)
}

// run executes one invocation.
func run(cfg *config) (*report, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	rep := &report{result: result{Metrics: map[string]metric{}}}
	rep.printf("perfbench workload=%s seed=%d seconds=%g trace=%v", def.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)

	// Set up several times and keep the last; setup_s is the median, so
	// one-time process warm-up does not swing it.
	var setupTimes []float64
	var w workload
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		w, err = def.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer w.close()

	var ph *phase
	if !cfg.trace {
		ph = newPhase()
		w.measure(cfg.seconds, cfg.tracer(false), ph)
		rep.set("setup_s", median(setupTimes), "s", fmt.Sprintf("(median of %d set-ups)", len(setupTimes)))
		endToEnd(rep, ph)
	} else {
		var err error
		ph, err = traced(cfg, w, rep)
		if err != nil {
			return nil, err
		}
	}
	rep.Attempted = ph.attempted
	rep.Failed = ph.failed
	rep.Correct = ph.failed == 0 && ph.attempted > 0
	rep.printf("  failed_ratio %.6g (%d of %d attempted); slo_miss_ratio %.6g (limit %v)",
		ratio(ph.failed, ph.attempted), ph.failed, ph.attempted, ratio(ph.sloMiss, ph.attempted), def.limit)
	if len(ph.diag) > 0 {
		rep.printf("  diagnose_p50_ms %.4f, diagnose_p90_ms %.4f (n=%d diagnoses)",
			quantile(ph.diag, 0.5), quantile(ph.diag, 0.9), len(ph.diag))
	}
	for _, c := range sortedKeys(ph.failures) {
		rep.printf("  check FAILED: %s (%d sessions)", c, ph.failures[c])
	}
	if !engagement(def, ph, rep) {
		rep.Correct = false
	}
	if cfg.trace {
		if cov := rep.Metrics["trace.self_coverage"].Value; cov < 0.9 {
			rep.printf("  check FAILED: trace.self_coverage %.4f below 0.9", cov)
			rep.Correct = false
		}
	}
	return rep, nil
}

// endToEnd reports the untraced window's end-to-end metrics: set-up
// time, CPU cost, allocation and heap. Latency and throughput are
// printed but not bounded: on a shared host whose speed drifted by a
// quarter over minutes they moved by more than any bound up to 0.25
// allows. The traced run reports them, unbounded.
func endToEnd(rep *report, ph *phase) {
	n := len(ph.lat)
	unbounded := func(name string, v float64, unit, note string) {
		rep.printf("  %-32s %14.6g %-6s %s; not bounded", name, v, unit, note)
	}
	unbounded("sessions_per_s", float64(n)/ph.elapsed.Seconds(), "1/s", fmt.Sprintf("(n=%d sessions in %.2fs)", n, ph.elapsed.Seconds()))
	for _, q := range []float64{0.5, 0.9, 0.99} {
		unbounded(fmt.Sprintf("session_p%.0f_ms", 100*q), quantile(ph.lat, q), "ms",
			fmt.Sprintf("(n=%d, %d beyond)", n, int(float64(n)*(1-q))))
	}
	rep.set("cpu_ms_per_session", ms(ph.cpu)/float64(max(ph.attempted, 1)), "ms",
		fmt.Sprintf("(process user+system CPU, n=%d requests)", ph.attempted))
	rep.set("alloc_kb_per_session", float64(ph.alloc)/1024/float64(max(ph.attempted, 1)), "KB",
		fmt.Sprintf("(n=%d requests)", ph.attempted))
	rep.set("peak_heap_mb", ph.peakMB, "MB", "(peak live heap after GC)")
}

// traced makes the traced run: an untraced window for the overhead
// baseline, then a traced window for the per-layer metrics, and on
// workloads with workers a single-threaded window for the serial
// baseline. Each gets an equal share of the run's seconds.
func traced(cfg *config, w workload, rep *report) (*phase, error) {
	sw, hasSerial := w.(serialRunner)
	windows := 2.0
	if hasSerial {
		windows = 3
	}
	share := time.Duration(float64(cfg.seconds) / windows)
	base := newPhase()
	w.measure(share, cfg.tracer(false), base)
	ph := newPhase()
	tr := cfg.tracer(true)
	w.measure(share, tr, ph)

	layerMetrics(rep, tr, ph, base)
	serial := newPhase()
	if hasSerial {
		sw.serial(share, serial)
		p50 := median(serial.lat)
		rep.set("par.serial_session_ms", p50, "ms", fmt.Sprintf("(workers 1, n=%d)", len(serial.lat)))
		rep.set("par.speedup", p50/median(base.lat), "x", "(serial p50 / workers-2 p50)")
	} else {
		rep.set("par.serial_session_ms", 0, "ms", "(workers do not apply)")
		rep.set("par.speedup", 0, "x", "(workers do not apply)")
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.printf("  spans written to %s (%d spans, %d sessions)", path, len(tr.spans), tr.sessions())
	// Every window's sessions were attempted and checked.
	ph.absorb(base)
	ph.absorb(serial)
	return ph, nil
}

// engagement checks that the workload still exercises — or still
// bypasses — the layers its description says it does.
func engagement(def workloadDef, ph *phase, rep *report) bool {
	ok := true
	for _, name := range sortedKeys(def.engaged) {
		want := def.engaged[name]
		v := ph.counts[name]
		if name == "nvmap.source_repeat_share" {
			v = ph.counts["nvmap.source_repeats"] / max(ph.counts["nvmap.sessions"], 1)
		}
		pass := v == 0
		wantText := "0"
		if want {
			pass = v > 0
			wantText = ">0"
			if strings.HasSuffix(name, "_share") {
				pass = v >= 0.99
				wantText = "≈1"
			}
		}
		status := "ok"
		if !pass {
			status = "FAILED"
			ok = false
		}
		rep.printf("  engagement %-28s %g (want %s) %s", name, v, wantText, status)
	}
	return ok
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{setups: 9}
	var seconds float64
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where traced runs write spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = traceFlag == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	b, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}
