package main

// serve-mixed: an open loop of Poisson arrivals at a fixed offered rate
// against an in-process nvprofd server over loopback HTTP. About 19 in
// 20 requests are sessions cycling the plain, faulty, crashy and
// parallel scenarios over a small pool of generated sources (so the
// compile cache is hit); the rest are Performance Consultant diagnoses
// of corpus programs with one planted cause. Latency runs from each
// request's due time, so a stall also delays the requests behind it.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nvmap"
	"nvmap/internal/paradyn"
	"nvmap/internal/serve"
)

const (
	// servedRate is the offered load in requests per second: about a
	// third of the ≈460/s two closed-loop clients sustained on a 2-core
	// host. At half, CPU steal from co-located work (up to a third of
	// the CPUs in some runs) pushed the server near saturation and made
	// latency swing between runs.
	servedRate = 150
	// servedLimit is the latency limit of slo_miss_ratio.
	servedLimit = 250 * time.Millisecond
	// servedPool is the number of sources per scenario kind.
	servedPool = 4
	// servedClients bounds the client connections (and sender
	// goroutines); the server has as many run slots.
	servedClients = 2
	servedNodes   = 8
)

// servedMetrics are enabled on every served session: the library
// metrics the generated programs can move, so a sampling round is large
// enough to overflow a faulty session's bounded channel.
var servedMetrics = []string{"computations", "computation_time", "reductions", "reduction_time",
	"summations", "summation_time", "maxval_count", "maxval_time", "minval_count", "minval_time",
	"array_transformations", "transformation_time", "rotations", "rotation_time", "shifts",
	"shift_time", "argument_processing_time", "broadcasts", "broadcast_time", "cleanups",
	"cleanup_time", "idle_time", "node_activations", "point_to_point_ops", "point_to_point_time"}

// maxSeedTries bounds the search for a faulty entry's scenario seed.
const maxSeedTries = 1000

// faultyMaxCapacity is the largest daemon-channel bound a faulty
// entry's plan may have: a sampling round of servedMetrics overflows
// it in most runs, so the seed search rarely needs a second reference
// run and set-up time does not depend on the seed.
const faultyMaxCapacity = 12

// newEntry builds pool entry i of kind with its reference outcome. A
// faulty entry takes the first scenario seed of its stream whose run
// overflows the bounded daemon channel, so the workload keeps
// exercising sample drops.
func newEntry(seed int64, kind string, i int) (*entry, error) {
	base := seed*131 + int64(i)*7919
	for try := int64(0); try < maxSeedTries; try++ {
		if kind == serve.ScenarioFaulty {
			if plan, _ := serve.ScenarioPlan(kind, base+try, servedNodes); plan.Channel.Capacity > faultyMaxCapacity {
				continue
			}
		}
		e := &entry{kind: kind, seed: base + try, workers: 1, prog: servedSource(seed, kind, i)}
		if kind == serve.ScenarioParallel {
			e.workers = parallelWorkers
		}
		if err := e.reference(); err != nil {
			return nil, err
		}
		if kind != serve.ScenarioFaulty || e.dropped > 0 {
			return e, nil
		}
	}
	return nil, fmt.Errorf("no scenario seed of %d tried overflows the channel", maxSeedTries)
}

// entry is one served source with its scenario and the answers a direct
// in-process run of the same request gives.
type entry struct {
	kind    string
	seed    int64
	workers int
	prog    program
	// Reference outcome: metric answers, the question's count and
	// satisfied time, the degradation report text, the error kind
	// ("" when the run finished) and the layer counters.
	answers  map[string]serve.AnswerInfo
	question serve.QuestionInfo
	report   string
	errKind  string
	dropped  float64 // samples the bounded channel dropped
	counters map[string]float64
}

type served struct {
	cfg     *config
	pool    map[string][]*entry
	corpus  map[string]nvmap.DiagScenario
	srv     *serve.Server
	hs      *http.Server
	serving chan struct{} // closed when hs.Serve has returned
	client  *http.Client
	url     string
	served  map[string]bool // sources already sent
}

func setupServed(cfg *config) (workload, error) {
	w := &served{cfg: cfg, pool: map[string][]*entry{}, corpus: map[string]nvmap.DiagScenario{},
		served: map[string]bool{}}
	for _, sc := range nvmap.DiagnosisCorpus() {
		w.corpus[sc.Name] = sc
	}
	for _, kind := range serve.ScenarioKinds {
		for i := 0; i < servedPool; i++ {
			e, err := newEntry(cfg.seed, kind, i)
			if err != nil {
				return nil, fmt.Errorf("reference run %s/%d: %w", kind, i, err)
			}
			w.pool[kind] = append(w.pool[kind], e)
		}
	}
	quotas := map[string]serve.TenantQuota{}
	for _, k := range serve.ScenarioKinds {
		quotas[k] = serve.TenantQuota{MaxSessions: servedClients}
	}
	w.srv = serve.NewServer(serve.Config{MaxConcurrent: servedClients, Quotas: quotas})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.hs = &http.Server{Handler: w.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.serving = make(chan struct{})
	go func() {
		defer close(w.serving)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: servedClients,
		MaxIdleConnsPerHost: servedClients, DisableCompression: true}}

	// Warm-up: every pool entry and corpus program once through the
	// server, which also fills its compile cache.
	var warm []request
	for _, kind := range serve.ScenarioKinds {
		for i := 0; i < servedPool; i++ {
			warm = append(warm, request{Scenario: kind, Entry: i})
		}
	}
	for _, name := range diagnoseCorpus {
		warm = append(warm, request{Diagnose: true, Corpus: name})
	}
	for _, q := range warm {
		if !q.Diagnose {
			w.served[w.pool[q.Scenario][q.Entry].prog.Source] = true
		}
		out := w.send(q, time.Now())
		if failed := w.check(q, &out); len(failed) > 0 {
			w.close()
			return nil, fmt.Errorf("warm-up %+v failed: %v", q, failed)
		}
	}
	return w, nil
}

func (w *served) close() {
	if w.hs != nil {
		_ = w.hs.Close() // stopping: in-flight requests, if any, are abandoned
		<-w.serving
		w.srv.Drain(0)
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// request is the wire body for pool entry e.
func (e *entry) request() serve.SessionRequest {
	return serve.SessionRequest{
		Tenant: e.kind, Source: e.prog.Source, Scenario: e.kind, Seed: e.seed,
		Nodes: servedNodes, Workers: e.workers, Metrics: servedMetrics,
		Questions: []serve.QuestionSpec{{Label: "fig6", Text: qFig6}},
	}
}

// reference runs e's request directly on the facade, with the options
// the server derives from it, and keeps the outcome.
func (e *entry) reference() error {
	req := e.request()
	opts := []nvmap.Option{nvmap.WithNodes(req.Nodes), nvmap.WithWorkers(req.Workers), nvmap.WithSourceFile("tenant.fcm")}
	if plan, rc := serve.ScenarioPlan(e.kind, e.seed, req.Nodes); plan != nil {
		opts = append(opts, nvmap.WithFaults(plan))
		if rc != nil {
			opts = append(opts, nvmap.WithRecovery(*rc))
		}
	}
	opts = append(opts, nvmap.WithBudget(nvmap.Budget{}))
	s, err := nvmap.NewSession(req.Source, opts...)
	if err != nil {
		return err
	}
	mon := s.EnableSASMonitor(true)
	aq, err := mon.Ask("fig6", qFig6)
	if err != nil {
		return err
	}
	var ems []*paradyn.EnabledMetric
	for _, id := range req.Metrics {
		em, err := s.Tool.EnableMetric(id, paradyn.WholeProgram())
		if err != nil {
			return err
		}
		ems = append(ems, em)
	}
	rep, runErr := s.RunContext(context.Background())
	if runErr != nil {
		var serr *nvmap.SessionError
		if !errors.As(runErr, &serr) {
			return runErr
		}
		e.errKind = serr.Kind.String()
	}
	now := s.Now()
	e.answers = map[string]serve.AnswerInfo{}
	for _, em := range ems {
		e.answers[em.Metric.ID] = serve.AnswerInfo{Metric: em.Metric.ID, Value: em.Value(now), Units: em.Metric.Units,
			Degraded: em.Degraded(), Partial: em.Partial()}
	}
	res, err := aq.Answer(now)
	if err != nil {
		return err
	}
	e.question = serve.QuestionInfo{Label: "fig6", Count: res.Count, EventTimeNS: int64(res.EventTime),
		SatisfiedTimeNS: int64(res.SatisfiedTime), Satisfied: res.Satisfied}
	e.report = rep.String()
	ph := newPhase()
	addCounters(ph, s, mon)
	e.dropped = ph.counts["daemon.dropped"]
	delete(ph.counts, "daemon.dropped") // read from the served report instead
	delete(ph.counts, "daemon.retried")
	e.counters = ph.counts
	return nil
}

// outcome is one request's client-side record.
type outcome struct {
	due, sent, admitted, first, end time.Time
	status                          int
	events                          []serve.Event
	err                             error
	// runWall is the server's own run (or search) wall time from the
	// done event.
	runWall time.Duration
}

// send posts q at (or after) due and reads its whole NDJSON stream.
func (w *served) send(q request, due time.Time) outcome {
	out := outcome{due: due}
	var body []byte
	path := "/v1/sessions"
	if q.Diagnose {
		path = "/v1/diagnose"
		body, out.err = json.Marshal(serve.DiagnoseRequest{Tenant: "diagnose", Source: w.corpus[q.Corpus].Source,
			Nodes: w.corpus[q.Corpus].Nodes})
	} else {
		body, out.err = json.Marshal(w.pool[q.Scenario][q.Entry].request())
	}
	if out.err != nil {
		return out
	}
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	out.sent = time.Now()
	resp, err := w.client.Post(w.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		out.end = time.Now()
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			out.err = fmt.Errorf("decode event: %w", err)
			break
		}
		now := time.Now()
		switch ev.Event {
		case "admitted":
			out.admitted = now
		case "answer", "question", "finding":
			if out.first.IsZero() {
				out.first = now
			}
		}
		out.events = append(out.events, ev)
	}
	if err := sc.Err(); err != nil && out.err == nil {
		out.err = err
	}
	out.end = time.Now()
	return out
}

func (w *served) measure(d time.Duration, tr *tracer, ph *phase) {
	count := int(servedRate * d.Seconds())
	sched := schedule(w.cfg.seed, count, d, serve.ScenarioKinds, servedPool)
	outs := make([]outcome, len(sched))
	mem := startMemWatch()
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex // guards ph and w.served
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				q := sched[i]
				o := w.send(q, start.Add(q.Due))
				failed := w.check(q, &o)
				mu.Lock()
				ph.settle(failed, o.end.Sub(o.due), servedLimit, q.Diagnose)
				w.book(q, &o, ph, len(failed) == 0)
				mu.Unlock()
				// Only the timings outlive the request, so the run's
				// peak heap is the system's, not the answers held here.
				o.events = nil
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	var last time.Time
	var lags []float64
	for i, q := range sched {
		o := &outs[i]
		if o.end.After(last) {
			last = o.end
		}
		if !o.sent.IsZero() {
			lags = append(lags, ms(o.sent.Sub(o.due)))
		}
		w.spans(tr, i, q, o)
	}
	ph.elapsed = last.Sub(start)
	mem.finish(ph)
	ph.layers["loadgen.offered_per_s"] = float64(count) / d.Seconds()
	ph.layers["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
}

// check returns the names of the checks request q's outcome failed.
func (w *served) check(q request, o *outcome) []string {
	if o.err != nil {
		return []string{"transport"}
	}
	if o.status != http.StatusOK {
		return []string{"status " + strconv.Itoa(o.status)}
	}
	if len(o.events) == 0 {
		return []string{"empty stream"}
	}
	final := o.events[len(o.events)-1]
	if q.Diagnose {
		return w.checkDiagnosis(q, o, final)
	}
	e := w.pool[q.Scenario][q.Entry]
	var failed []string
	switch {
	case e.errKind == "" && final.Event != "done":
		failed = append(failed, "ends in done")
	case e.errKind != "" && (final.Event != "error" || final.Error.Kind != e.errKind):
		failed = append(failed, "ends in its typed error")
	}
	nAnswers := 0
	for _, ev := range o.events {
		switch ev.Event {
		case "answer":
			nAnswers++
			if want, ok := e.answers[ev.Answer.Metric]; !ok || *ev.Answer != want {
				failed = append(failed, "answer "+ev.Answer.Metric)
			}
		case "question":
			if *ev.Question != e.question {
				failed = append(failed, "question")
			}
		case "report":
			if ev.Report.Text != e.report {
				failed = append(failed, "report")
			}
		}
	}
	if nAnswers != len(e.answers) {
		failed = append(failed, "answer count")
	}
	return failed
}

// checkDiagnosis requires the search to confirm exactly its corpus
// program's planted cause among the whole-program findings.
func (w *served) checkDiagnosis(q request, o *outcome, final serve.Event) []string {
	if final.Event != "done" {
		return []string{"diagnosis ends in done"}
	}
	planted := w.corpus[q.Corpus].Planted
	found := false
	for _, ev := range o.events {
		if ev.Event != "finding" || ev.Finding.Depth != 0 {
			continue
		}
		f := ev.Finding
		if f.Confirmed != (f.Hypothesis == planted) {
			return []string{"planted cause " + planted}
		}
		found = found || f.Confirmed
	}
	if !found {
		return []string{"planted cause " + planted}
	}
	return nil
}

var (
	reSamplesDropped = regexp.MustCompile(`samples dropped: (\d+)`)
	reRetried        = regexp.MustCompile(`mapping records retried: (\d+)`)
	reCheckpoints    = regexp.MustCompile(`checkpoints: (\d+) saved \(\d+ bytes\), (\d+) restored`)
	reMsgDropped     = regexp.MustCompile(`messages: (\d+) dropped`)
)

// reportCount reads capture group g of re from a report text, 0 when
// the report has no such line.
func reportCount(re *regexp.Regexp, text string, g int) float64 {
	m := re.FindStringSubmatch(text)
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseFloat(m[g], 64)
	return v
}

// book folds a request's outcome into the layer counters.
func (w *served) book(q request, o *outcome, ph *phase, ok bool) {
	if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
		ph.counts["serve.rejected"]++
	}
	if !ok {
		return
	}
	ph.counts["serve.admit_wait_ms"] += ms(o.admitted.Sub(o.sent))
	ph.counts["serve.run_ms"] += ms(o.end.Sub(o.admitted))
	if !o.first.IsZero() {
		ph.counts["serve.first_answer_ms"] += ms(o.first.Sub(o.sent))
	}
	for _, ev := range o.events {
		switch ev.Event {
		case "admitted":
			ph.counts["serve.queue_wait_ms"] += ms(time.Duration(ev.Admitted.QueueNS))
			if ev.Admitted.ShedLevel > 0 {
				ph.counts["serve.shed"]++
			}
		case "report":
			t := ev.Report.Text
			ph.counts["daemon.dropped"] += reportCount(reSamplesDropped, t, 1)
			ph.counts["daemon.retried"] += reportCount(reRetried, t, 1)
			ph.counts["checkpoint.saves"] += reportCount(reCheckpoints, t, 1)
			ph.counts["recovery.restores"] += reportCount(reCheckpoints, t, 2)
			ph.counts["fault.dropped_messages"] += reportCount(reMsgDropped, t, 1)
		case "diagnosis":
			di := ev.Diagnosis
			ph.counts["diagnose.probes_run"] += float64(di.ProbesRun)
			ph.counts["diagnose.pruned"] += float64(di.Pruned)
			ph.counts["diagnose.confirmed"] += float64(di.Confirmed)
			ph.counts["diagnose.search_vtime_ns"] += float64(di.SearchVTimeNS)
		case "done":
			o.runWall = time.Duration(ev.Done.WallNS)
			if q.Diagnose {
				ph.counts["diagnose.search_ms"] += ms(o.runWall)
			}
		}
	}
	if q.Diagnose {
		return
	}
	e := w.pool[q.Scenario][q.Entry]
	ph.sessions++
	ph.counts["nvmap.sessions"]++
	if w.served[e.prog.Source] {
		ph.counts["nvmap.source_repeats"]++
	}
	w.served[e.prog.Source] = true
	ph.counts["paradyn.metric_instances"] += float64(len(servedMetrics))
	for k, v := range e.counters {
		ph.counts[k] += v
	}
}

// spans records request i's phases: the generator's lag (due → sent),
// the wait for admission (sent → admitted, which covers NewSession and
// the question and metric set-up) and the admitted run with its
// answers (admitted → end). A session's run carries the server's own
// Session.Run wall time as a child.
func (w *served) spans(tr *tracer, i int, q request, o *outcome) {
	if !tr.on || o.sent.IsZero() || o.admitted.IsZero() {
		return
	}
	root := tr.record("session", i, -1, o.due, o.end)
	tr.record(spLag, i, root, o.due, o.sent)
	tr.record(spAdmitWait, i, root, o.sent, o.admitted)
	run := tr.record(spServeRun, i, root, o.admitted, o.end)
	if o.runWall > 0 {
		name := spRun
		if q.Diagnose {
			name = "diagnose.search"
		}
		end := o.admitted.Add(o.runWall)
		if end.After(o.end) {
			end = o.end
		}
		tr.record(name, i, run, o.admitted, end)
	}
}
