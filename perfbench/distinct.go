package main

// profile-distinct: a closed loop of one client on the in-process
// facade. Every session compiles a program no earlier session used, so
// cmf → pifgen → PIF import is the largest layer, and the session is
// write-heavy on the SAS.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"nvmap"
	"nvmap/internal/cmf"
	"nvmap/internal/obs"
	"nvmap/internal/paradyn"
	"nvmap/internal/pifgen"
)

// The Figure 6 question, the narrow single-term question and its
// widening: the widened one must answer at least as much as the narrow.
const (
	qFig6   = "{A Sums}, {? Sends}"
	qNarrow = "{A Sums}"
	qWide   = "{A ?}"
)

// distinctMetrics are the four whole-program metrics each session
// enables; the first three are checked against the generator's counts.
var distinctMetrics = []string{"computations", "reductions", "summations", "computation_time"}

// distinctLimit is the session latency limit of slo_miss_ratio.
const distinctLimit = 50 * time.Millisecond

// distinctWarmups is how many sessions set-up runs so lazy process
// state (metric library, interner tables) is built before timing.
const distinctWarmups = 60

// distinctWarmupBase offsets the warm-up programs' indices past any a
// run reaches, so measured sessions never reuse a warm-up source.
const distinctWarmupBase = 1 << 30

type distinct struct {
	cfg  *config
	next int // index of the next session's program
	// seen holds the hashes of the sources run so far; hashes, so the
	// benchmark's own memory does not grow by a source per session.
	seen map[uint64]bool
}

func setupDistinct(cfg *config) (workload, error) {
	w := &distinct{cfg: cfg, seen: map[uint64]bool{}}
	// The warm-up checks answers without any planted skew.
	warm := &distinct{cfg: &config{seed: cfg.seed}, seen: w.seen}
	ph := newPhase()
	for i := 0; i < distinctWarmups; i++ {
		p := distinctProgram(cfg.seed, distinctWarmupBase+i)
		if failed := warm.session(newTracer(false), i, p, ph); len(failed) > 0 {
			return nil, fmt.Errorf("warm-up session %d failed: %s", i, strings.Join(failed, ", "))
		}
	}
	return w, nil
}

func (w *distinct) close() {}

func (w *distinct) measure(d time.Duration, tr *tracer, ph *phase) {
	mem := startMemWatch()
	t0 := time.Now()
	for time.Since(t0) < d {
		p := distinctProgram(w.cfg.seed, w.next)
		w.next++
		start := time.Now()
		failed := w.session(tr, w.next, p, ph)
		ph.settle(failed, time.Since(start), distinctLimit, false)
	}
	ph.elapsed = time.Since(t0)
	mem.finish(ph)
}

// session runs one profile-distinct session on p and returns the names
// of the checks it failed.
func (w *distinct) session(tr *tracer, id int, p program, ph *phase) []string {
	root := tr.beginSession(id)
	defer tr.end(root)
	h := fnv.New64a()
	h.Write([]byte(p.Source))
	repeat := w.seen[h.Sum64()]
	w.seen[h.Sum64()] = true
	if tr.on && !repeat {
		// NewSession's own compile cannot be observed from outside, so
		// the traced run compiles the new source once more through the
		// layers' public calls to time them.
		traceCompile(tr, p.Source, ph)
	}
	opts := []nvmap.Option{nvmap.WithNodes(8), nvmap.WithWorkers(1)}
	if tr.on {
		opts = append(opts, nvmap.WithObservability())
	}
	sp := tr.begin(spNewSession)
	s, err := nvmap.NewSession(p.Source, opts...)
	if err == nil {
		addPIFImport(tr, s)
	}
	tr.end(sp)
	if err != nil {
		return []string{"new_session: " + err.Error()}
	}
	sp = tr.begin(spMonitor)
	mon := s.EnableSASMonitor(true)
	tr.end(sp)
	var asked []*nvmap.AskedQuestion
	for _, q := range []string{qFig6, qNarrow, qWide} {
		sp = tr.begin(spAsk)
		aq, err := mon.Ask(q, q)
		tr.end(sp)
		if err != nil {
			return []string{"ask: " + err.Error()}
		}
		asked = append(asked, aq)
	}
	ems := make([]*paradyn.EnabledMetric, 0, len(distinctMetrics))
	for _, id := range distinctMetrics {
		sp = tr.begin(spEnable)
		em, err := s.Tool.EnableMetric(id, paradyn.WholeProgram())
		tr.end(sp)
		if err != nil {
			return []string{"enable_metric: " + err.Error()}
		}
		ems = append(ems, em)
	}
	if err := runSession(tr, s); err != nil {
		return []string{"run: " + err.Error()}
	}
	now := s.Now()
	answers := make([]float64, 0, 2*len(asked))
	for _, aq := range asked {
		sp = tr.begin(spAnswer)
		res, err := aq.Answer(now)
		tr.end(sp)
		if err != nil {
			return []string{"answer: " + err.Error()}
		}
		answers = append(answers, res.Count, float64(res.SatisfiedTime))
	}
	values := make([]float64, len(ems))
	sp = tr.begin(spValue)
	for i, em := range ems {
		values[i] = em.Value(now)
	}
	tr.end(sp)

	ph.sessions++
	if repeat {
		ph.counts["nvmap.source_repeats"]++
	}
	ph.counts["nvmap.sessions"]++
	ph.counts["paradyn.metric_instances"] += float64(len(ems))
	addCounters(ph, s, mon)

	skew := float64(w.cfg.skewExpected)
	var failed []string
	for i, want := range []int{p.Computations, p.Reductions, p.Summations} {
		if values[i] != float64(want)+skew {
			failed = append(failed, distinctMetrics[i])
		}
	}
	// answers: Fig6 (count, satisfied), narrow, wide.
	if answers[5] < answers[3] || answers[4] < answers[2] || answers[3] <= 0 {
		failed = append(failed, "widening")
	}
	return failed
}

// traceCompile times the compile path a cache-missing NewSession takes:
// cmf.CompileSource, then pifgen.FromListing over its listing.
func traceCompile(tr *tracer, source string, ph *phase) {
	sp := tr.begin(spCompile)
	cp, err := cmf.CompileSource(source, cmf.Options{})
	tr.end(sp)
	if err != nil {
		return
	}
	sp = tr.begin(spFromListing)
	pf, err := pifgen.FromListing(strings.NewReader(cp.Listing()))
	tr.end(sp)
	if err == nil {
		ph.counts["pifgen.records"] += float64(len(pf.Levels) + len(pf.Nouns) + len(pf.Verbs) + len(pf.Mappings))
	}
}

// addPIFImport reads the PIF-import stage NewSession recorded on the
// session's observability plane.
func addPIFImport(tr *tracer, s *nvmap.Session) {
	if p := s.Observability(); p != nil {
		tr.add(spPIFImport, time.Duration(p.Tracer.Totals()[obs.StagePIFImport].Self))
	}
}

// runSession wraps Session.Run. Traced, it splits the run's wall time
// into the observability plane's per-stage self times, which become
// child spans of the run.
func runSession(tr *tracer, s *nvmap.Session) error {
	sp := tr.begin(spRun)
	defer tr.end(sp)
	if _, err := s.Run(); err != nil {
		return err
	}
	if pr := s.PerturbationReport(); pr != nil {
		for _, st := range pr.Stages {
			tr.add(stageLayer(st.Stage.String()), time.Duration(st.SelfWall))
		}
	}
	return nil
}

// addCounters folds one finished session's layer counters into ph.
func addCounters(ph *phase, s *nvmap.Session, mon *nvmap.Monitor) {
	is := s.Inst.Stats()
	ph.counts["dyninst.inserted"] += float64(is.Inserted)
	ph.counts["dyninst.fires"] += float64(is.Fires)
	ph.counts["dyninst.suppressed"] += float64(is.Suppressed)
	ph.counts["dyninst.perturbation_ns"] += float64(is.Perturbation)
	ph.counts["machine.vtime_ns"] += float64(s.Elapsed())
	ph.counts["machine.parallel_regions"] += float64(s.Machine.ParallelRegions())
	ph.counts["machine.net_congestion_bytes"] += float64(s.Machine.NetStats().MaxLinkBytes)
	cs := s.Tool.Channel().Stats()
	ph.counts["daemon.sent"] += float64(cs.Sent)
	ph.counts["daemon.batches"] += float64(cs.Batches)
	ph.counts["daemon.dropped"] += float64(cs.Dropped)
	ph.counts["daemon.retried"] += float64(cs.Retried)
	if mon != nil {
		ss := mon.Stats()
		ph.counts["sas.notifications"] += float64(ss.Notifications)
		ph.counts["sas.stored"] += float64(ss.Stored)
		ph.counts["sas.evaluations"] += float64(ss.Evaluations)
	}
}
