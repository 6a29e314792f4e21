package main

// The benchmark's own tracing: one span per call into a layer's public
// API, recorded by the wrappers in the workload files. Spans are kept in
// memory and written out when the run ends. A span's self time is its
// duration minus the part covered by its child spans, so the self times
// of one session's spans sum to the session's wall time.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded interval. Parent is the index of the enclosing
// span in the tracer's slice, -1 for a session root.
type span struct {
	Name    string
	Session int
	Parent  int
	Start   time.Duration // since the tracer's epoch
	End     time.Duration
	child   time.Duration // summed duration of direct children
}

func (s *span) self() time.Duration { return s.End - s.Start - s.child }

// tracer records spans when on. Off, begin and end cost a branch, so
// the untraced runs that give the end-to-end metrics pay nothing for
// the wrappers. delay plants a busy-wait in a named layer's wrapper,
// traced or not; only the self-tests set it.
type tracer struct {
	on      bool
	epoch   time.Time
	spans   []span
	open    []int // stack of open span indices
	session int
	delay   map[string]time.Duration
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now()}
}

// beginSession opens a session root span with a fresh identifier.
func (t *tracer) beginSession(id int) int {
	t.session = id
	return t.begin("session")
}

// begin opens a span named after the layer call it wraps and returns
// its handle for end.
func (t *tracer) begin(name string) int {
	idx := -1
	if t.on {
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
		t.spans = append(t.spans, span{Name: name, Session: t.session, Parent: parent, Start: time.Since(t.epoch)})
		idx = len(t.spans) - 1
		t.open = append(t.open, idx)
	}
	if d := t.delay[name]; d > 0 {
		spin(d)
	}
	return idx
}

// end closes the span opened by begin; it must be the innermost open
// span.
func (t *tracer) end(idx int) {
	if idx < 0 {
		return
	}
	s := &t.spans[idx]
	s.End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
	if s.Parent >= 0 {
		t.spans[s.Parent].child += s.End - s.Start
	}
}

// add records an already-measured child interval of the innermost open
// span: the observability plane's per-stage self times, which nvmap
// measures inside Session.Run where no wrapper can reach. The interval
// is placed at the end of its parent's elapsed time so far.
func (t *tracer) add(name string, d time.Duration) {
	if !t.on || d <= 0 || len(t.open) == 0 {
		return
	}
	now := time.Now()
	t.record(name, t.session, t.open[len(t.open)-1], now.Add(-d), now)
}

// record stores a span measured elsewhere — the served workload's
// request phases, timed on its client goroutines — under parent (-1 for
// a session root) and returns its index.
func (t *tracer) record(name string, session, parent int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	s := span{Name: name, Session: session, Parent: parent, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.spans = append(t.spans, s)
	if parent >= 0 {
		t.spans[parent].child += s.End - s.Start
	}
	return len(t.spans) - 1
}

// spin busy-waits for d, so a planted delay costs CPU time the way a
// slower layer would.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// layerStat is one layer's totals over the traced sessions.
type layerStat struct {
	Calls int
	Self  time.Duration
}

// selfTimes sums self time per span name over every non-root span.
func (t *tracer) selfTimes() map[string]*layerStat {
	out := map[string]*layerStat{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent < 0 {
			continue
		}
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStat{}
			out[s.Name] = ls
		}
		ls.Calls++
		ls.Self += s.self()
	}
	return out
}

// coverage is the share of session wall time that the layer spans' self
// times account for: everything but the roots' own self time.
func (t *tracer) coverage() float64 {
	var wall, rootSelf time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent < 0 {
			wall += s.End - s.Start
			rootSelf += s.self()
		}
	}
	if wall <= 0 {
		return 0
	}
	return float64(wall-rootSelf) / float64(wall)
}

// sessions counts the recorded session roots.
func (t *tracer) sessions() int {
	n := 0
	for i := range t.spans {
		if t.spans[i].Parent < 0 {
			n++
		}
	}
	return n
}

// write stores the spans as Chrome trace_event JSON (loadable in
// Perfetto), one complete event per span with the session identifier
// as its thread, so each session reads as its own track.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	idx := make([]int, len(t.spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return t.spans[idx[a]].Start < t.spans[idx[b]].Start })
	fmt.Fprint(w, "{\"traceEvents\":[")
	enc := json.NewEncoder(w)
	for n, i := range idx {
		s := &t.spans[i]
		if n > 0 {
			fmt.Fprint(w, ",")
		}
		ev := event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Session,
			Args: map[string]any{"session": s.Session, "self_us": us(s.self())}}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
