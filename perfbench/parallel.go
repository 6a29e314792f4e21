package main

// profile-parallel: a closed loop of one client on the in-process
// facade. Sessions run 32 nodes on an 8×4 torus with a greedy
// placement, arrays large enough that every node region runs on the
// worker pool, 160 per-node metric instances and a fixed number of
// sampling rounds after the run. Programs come from a small pool, so
// compile-cache hits are ≈1.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"nvmap"
	"nvmap/internal/machine"
	"nvmap/internal/paradyn"
	"nvmap/internal/pifgen"
	"nvmap/internal/place"
	"nvmap/internal/vtime"
)

const (
	parallelNodes   = 32
	parallelWorkers = 2
	parallelPoolLen = 4
	// parallelRounds is how many SampleAll rounds follow each run.
	parallelRounds = 16
	// parallelLimit is the session latency limit of slo_miss_ratio.
	parallelLimit = 500 * time.Millisecond
)

// parallelMetrics are enabled on every Machine/nodeN focus.
var parallelMetrics = []string{"computations", "computation_time", "summation_time", "point_to_point_ops", "idle_time"}

var parallelTopology = machine.Topology{GridX: 8, GridY: 4, Torus: true, LinkHop: 2 * vtime.Microsecond}

type parallelWL struct {
	cfg     *config
	pool    []program
	traffic [][][]int64
	// want is each pool program's answer digest from a workers-1 run.
	want []string
	seen map[string]bool
	next int
}

func setupParallel(cfg *config) (workload, error) {
	w := &parallelWL{cfg: cfg, pool: parallelPool(cfg.seed, parallelPoolLen), seen: map[string]bool{}}
	for _, p := range w.pool {
		w.traffic = append(w.traffic, ringTraffic(p))
	}
	// The workers-1 reference run of each program doubles as the
	// compile-cache fill and warm-up.
	ph := newPhase()
	for i := range w.pool {
		digest, err := w.session(newTracer(false), i, i, 1, ph)
		if err != nil {
			return nil, fmt.Errorf("reference run of pool program %d: %w", i, err)
		}
		w.want = append(w.want, digest)
	}
	return w, nil
}

// ringTraffic is the placement's traffic model for p: the CM run-time
// system's reduction tree and neighbour ring, with the ring weighted by
// how many CSHIFTs the program makes.
func ringTraffic(p program) [][]int64 {
	t := place.DefaultTraffic(parallelNodes)
	for i := range t {
		t[i][(i+1)%parallelNodes] += int64(8 * p.Shifts * p.Size / parallelNodes)
	}
	return t
}

func (w *parallelWL) close() {}

func (w *parallelWL) measure(d time.Duration, tr *tracer, ph *phase) {
	w.loop(d, tr, ph, parallelWorkers)
}

func (w *parallelWL) serial(d time.Duration, ph *phase) {
	w.loop(d, newTracer(false), ph, 1)
}

func (w *parallelWL) loop(d time.Duration, tr *tracer, ph *phase, workers int) {
	mem := startMemWatch()
	t0 := time.Now()
	for time.Since(t0) < d {
		i := w.next % len(w.pool)
		w.next++
		start := time.Now()
		digest, err := w.session(tr, w.next, i, workers, ph)
		lat := time.Since(start)
		var failed []string
		switch {
		case err != nil:
			failed = []string{err.Error()}
		case digest != w.want[i]:
			failed = []string{"digest differs from the workers-1 reference"}
		}
		ph.settle(failed, lat, parallelLimit, false)
	}
	ph.elapsed = time.Since(t0)
	mem.finish(ph)
}

// session runs pool program i at the given worker width and returns the
// digest of everything it answered.
func (w *parallelWL) session(tr *tracer, id, i, workers int, ph *phase) (string, error) {
	p := w.pool[i]
	root := tr.beginSession(id)
	defer tr.end(root)
	repeat := w.seen[p.Source]
	w.seen[p.Source] = true

	topo := parallelTopology
	sp := tr.begin(spGreedy)
	placement := place.Greedy(parallelNodes, &topo, w.traffic[i])
	tr.end(sp)
	if tr.on {
		// NewSession builds the topology's PIF records internally; the
		// traced run builds them once more through pifgen's public call
		// to time that layer.
		sp = tr.begin(spFromTopology)
		pf := pifgen.FromTopology(&topo, placement, parallelNodes)
		tr.end(sp)
		ph.counts["pifgen.records"] += float64(len(pf.Levels) + len(pf.Nouns) + len(pf.Verbs) + len(pf.Mappings))
	}
	opts := []nvmap.Option{nvmap.WithNodes(parallelNodes), nvmap.WithWorkers(workers),
		nvmap.WithTopology(topo), nvmap.WithPlacement(placement)}
	if tr.on {
		opts = append(opts, nvmap.WithObservability())
	}
	sp = tr.begin(spNewSession)
	s, err := nvmap.NewSession(p.Source, opts...)
	if err == nil {
		addPIFImport(tr, s)
	}
	tr.end(sp)
	if err != nil {
		return "", fmt.Errorf("new_session: %w", err)
	}
	sp = tr.begin(spMonitor)
	mon := s.EnableSASMonitor(true)
	tr.end(sp)
	sp = tr.begin(spAsk)
	aq, err := mon.Ask(qFig6, qFig6)
	tr.end(sp)
	if err != nil {
		return "", fmt.Errorf("ask: %w", err)
	}
	var ems []*paradyn.EnabledMetric
	for n := 0; n < parallelNodes; n++ {
		for _, mid := range parallelMetrics {
			sp = tr.begin(spEnable)
			em, err := enableOnNode(s, mid, n)
			tr.end(sp)
			if err != nil {
				return "", fmt.Errorf("enable_metric: %w", err)
			}
			ems = append(ems, em)
		}
	}
	if err := runSession(tr, s); err != nil {
		return "", fmt.Errorf("run: %w", err)
	}
	now := s.Now()
	every := vtime.Duration(max(int64(now)/parallelRounds, 1))
	for r := 1; r <= parallelRounds; r++ {
		sp = tr.begin(spSampleAll)
		s.Tool.SampleAll(now.Add(vtime.Duration(r) * every))
		tr.end(sp)
	}
	sp = tr.begin(spAnswer)
	res, err := aq.Answer(now)
	tr.end(sp)
	if err != nil {
		return "", fmt.Errorf("answer: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed %d answer %v %d %d net %+v\n", s.Elapsed(), res.Count, res.EventTime, res.SatisfiedTime, s.Machine.NetStats())
	sp = tr.begin(spValue)
	for _, em := range ems {
		fmt.Fprintf(&b, "%s %x\n", em.Focus, math.Float64bits(em.Value(now)))
	}
	tr.end(sp)
	sum := sha256.Sum256([]byte(b.String()))

	ph.sessions++
	if repeat {
		ph.counts["nvmap.source_repeats"]++
	}
	ph.counts["nvmap.sessions"]++
	ph.counts["paradyn.metric_instances"] += float64(len(ems))
	ph.counts["paradyn.sample_rounds"] += parallelRounds
	addCounters(ph, s, mon)
	return hex.EncodeToString(sum[:]), nil
}

// enableOnNode enables metric id at the Machine/nodeN focus.
func enableOnNode(s *nvmap.Session, id string, node int) (*paradyn.EnabledMetric, error) {
	res, ok := s.Tool.Axis.Find(fmt.Sprintf("Machine/node%d", node))
	if !ok {
		return nil, fmt.Errorf("node%d missing from the where axis", node)
	}
	focus, err := paradyn.NewFocus(res)
	if err != nil {
		return nil, err
	}
	return s.Tool.EnableMetric(id, focus)
}
