package daemon

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nvmap/internal/fault"
	"nvmap/internal/vtime"
)

// refChannel is the reference for the channel: plain slices with the
// documented semantics and none of the Channel's machinery (no locks,
// no depth mirror, no reused buffers). Parked retries are delivered
// ahead of the queue; a full bounded queue drops samples under
// DropOldest/DropNewest and parks every other kind for retry;
// Backpressure calls the hook and then enqueues; a SendBatch that has a
// tap or would overflow is len(ms) single sends; Drain stops at the
// failing message and requeues it and everything behind it at the head
// of the queue; DrainBatch is all-or-nothing.
type refChannel struct {
	queue, retry []Message
	stats        Stats
	capacity     int
	policy       fault.OverflowPolicy
	probeHW      int
	onDrop       func(Message)
	onFull       func()
	onMsg        func(Message)
}

func newRefChannel() *refChannel {
	return &refChannel{stats: Stats{ByKind: map[Kind]int{}, DroppedByKind: map[Kind]int{}}}
}

func (r *refChannel) SetLimit(capacity int, policy fault.OverflowPolicy) {
	if capacity <= 0 {
		capacity, policy = 0, fault.Unbounded
	}
	r.capacity, r.policy = capacity, policy
}

func (r *refChannel) OnDrop(fn func(Message))    { r.onDrop = fn }
func (r *refChannel) OnBackpressure(fn func())   { r.onFull = fn }
func (r *refChannel) OnMessage(fn func(Message)) { r.onMsg = fn }

func (r *refChannel) full() bool { return r.capacity > 0 && len(r.queue) >= r.capacity }

// displace routes one message pushed out by overflow.
func (r *refChannel) displace(m Message) {
	if m.Kind != KindSample {
		r.retry = append(r.retry, m)
		r.stats.Retried++
		return
	}
	r.stats.Dropped++
	r.stats.DroppedByKind[m.Kind]++
	if r.onDrop != nil {
		r.onDrop(m)
	}
}

func (r *refChannel) noteDepth(n int) {
	r.stats.MaxQueue = max(r.stats.MaxQueue, n)
	r.probeHW = max(r.probeHW, n)
}

func (r *refChannel) Send(m Message) {
	if r.onMsg != nil {
		r.onMsg(m)
	}
	if r.full() && r.policy == fault.Backpressure && r.onFull != nil {
		r.stats.Backpressured++
		r.onFull()
	}
	r.stats.Sent++
	r.stats.ByKind[m.Kind]++
	if r.full() {
		switch r.policy {
		case fault.DropOldest:
			oldest := r.queue[0]
			r.queue = r.queue[1:]
			r.displace(oldest)
		case fault.DropNewest:
			r.displace(m)
			return
		}
	}
	r.queue = append(r.queue, m)
	r.noteDepth(len(r.queue))
}

func (r *refChannel) SendBatch(ms []Message) {
	if len(ms) == 0 {
		return
	}
	if r.onMsg != nil || (r.capacity > 0 && len(r.queue)+len(ms) > r.capacity) {
		for _, m := range ms {
			r.Send(m)
		}
		return
	}
	r.stats.Sent += len(ms)
	for _, m := range ms {
		r.stats.ByKind[m.Kind]++
	}
	r.stats.Batches++
	r.queue = append(r.queue, ms...)
	r.noteDepth(len(r.queue))
}

// gather takes everything deliverable, retries first, into a fresh
// slice and empties the channel.
func (r *refChannel) gather() []Message {
	out := append(append([]Message(nil), r.retry...), r.queue...)
	r.noteDepth(len(out))
	r.retry, r.queue = nil, nil
	return out
}

func (r *refChannel) requeue(ms []Message) {
	r.queue = append(append([]Message(nil), ms...), r.queue...)
}

func (r *refChannel) Drain(fn func(Message) error) (int, error) {
	pending := r.gather()
	for i, m := range pending {
		if err := fn(m); err != nil {
			r.requeue(pending[i:])
			r.stats.Delivered += i
			return i, err
		}
	}
	r.stats.Delivered += len(pending)
	return len(pending), nil
}

func (r *refChannel) DrainBatch(fn func([]Message) error) (int, error) {
	pending := r.gather()
	if len(pending) == 0 {
		return 0, nil
	}
	if err := fn(pending); err != nil {
		r.requeue(pending)
		return 0, err
	}
	r.stats.Delivered += len(pending)
	r.stats.BatchesFlushed++
	return len(pending), nil
}

func (r *refChannel) Pending() int { return len(r.queue) + len(r.retry) }

func (r *refChannel) HighWaterSince() int {
	hw := max(r.probeHW, r.Pending())
	r.probeHW = 0
	return hw
}

func (r *refChannel) Stats() Stats {
	out := r.stats
	out.ByKind = make(map[Kind]int, len(r.stats.ByKind))
	for k, v := range r.stats.ByKind {
		out.ByKind[k] = v
	}
	out.DroppedByKind = make(map[Kind]int, len(r.stats.DroppedByKind))
	for k, v := range r.stats.DroppedByKind {
		out.DroppedByKind[k] = v
	}
	return out
}

// conduit is the surface the differential test drives on both sides.
type conduit interface {
	SetLimit(int, fault.OverflowPolicy)
	OnDrop(func(Message))
	OnBackpressure(func())
	OnMessage(func(Message))
	Send(Message)
	SendBatch([]Message)
	Drain(func(Message) error) (int, error)
	DrainBatch(func([]Message) error) (int, error)
	Pending() int
	HighWaterSince() int
	Stats() Stats
}

var (
	_ conduit = (*Channel)(nil)
	_ conduit = (*refChannel)(nil)
)

// modelOp is one pre-generated step, applied identically to both sides.
type modelOp struct {
	kind     int // see the op* constants
	msgs     []Message
	capacity int
	policy   fault.OverflowPolicy
	on       bool
	// failAt is the delivery call that fails (-1: none). For Drain it
	// counts messages; DrainBatch fails its one call when failAt >= 0.
	failAt int
	// sendAt is the delivery call during which the callback itself
	// sends msgs (-1: none).
	sendAt int
	// hookFail is failAt for drains the Backpressure hook runs during
	// this step.
	hookFail int
}

const (
	opSend = iota
	opSendBatch
	opDrain
	opDrainBatch
	opSetLimit
	opTap
	opHook
	opDropObserver
	numOps
)

// modelGen builds random messages with unique, increasing stamps.
type modelGen struct {
	rng *rand.Rand
	seq int
}

func (g *modelGen) msg() Message {
	g.seq++
	m := Message{At: vtime.Time(g.seq)}
	switch n := g.rng.Intn(10); {
	case n < 6:
		m.Kind = KindSample
		m.Sample = Sample{MetricID: "m", Value: float64(g.seq), Enabled: g.seq % 3}
	case n == 6:
		m.Kind = KindNounDef
	case n == 7:
		m.Kind = KindVerbDef
	case n == 8:
		m.Kind = KindMappingDef
	default:
		m.Kind = KindRemoval
		m.Removal = fmt.Sprint("noun", g.seq)
	}
	return m
}

func (g *modelGen) msgs(n int) []Message {
	out := make([]Message, n)
	for i := range out {
		out[i] = g.msg()
	}
	return out
}

func (g *modelGen) op() modelOp {
	op := modelOp{kind: g.rng.Intn(numOps), failAt: -1, sendAt: -1, hookFail: -1}
	if g.rng.Intn(3) == 0 {
		op.hookFail = g.rng.Intn(4)
	}
	switch op.kind {
	case opSend:
		op.msgs = g.msgs(1)
	case opSendBatch:
		op.msgs = g.msgs(1 + g.rng.Intn(10))
	case opDrain, opDrainBatch:
		if g.rng.Intn(3) == 0 {
			op.failAt = g.rng.Intn(6)
		}
		if g.rng.Intn(3) == 0 {
			op.sendAt = g.rng.Intn(4)
			op.msgs = g.msgs(1 + g.rng.Intn(4))
		}
	case opSetLimit:
		// Unbounded (capacity 0) often enough to cover switching back.
		op.capacity = g.rng.Intn(7)
		op.policy = fault.OverflowPolicy(g.rng.Intn(4))
	case opTap, opHook, opDropObserver:
		op.on = g.rng.Intn(2) == 0
	}
	return op
}

// modelSide is one conduit plus everything observed coming out of it.
type modelSide struct {
	c        conduit
	hookFail int
	// draining is set while a top-level drain runs. A send from its
	// callback may meet a full Backpressure channel; the hook then only
	// notes the stall, because draining again from inside a drain would
	// deadlock the Channel's drain lock.
	draining bool
	// log records the current step's observable events in order:
	// deliveries, tap calls, drop notifications, hook calls and drain
	// results.
	log []string
}

var errInjected = errors.New("injected delivery failure")

func (s *modelSide) note(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

func describe(m Message) string {
	return fmt.Sprintf("%v@%d%+v/%s", m.Kind, m.At, m.Sample, m.Removal)
}

func (s *modelSide) deliverer(tag string, failAt, sendAt int, sends []Message) func(Message) error {
	calls := 0
	return func(m Message) error {
		i := calls
		calls++
		if i == sendAt {
			for _, x := range sends {
				s.c.Send(x)
			}
		}
		if i == failAt {
			s.note("%s fail %s", tag, describe(m))
			return errInjected
		}
		s.note("%s got %s", tag, describe(m))
		return nil
	}
}

func (s *modelSide) hook() {
	if s.draining {
		s.note("backpressure during drain")
		return
	}
	s.note("backpressure")
	n, err := s.c.Drain(s.deliverer("hook", s.hookFail, -1, nil))
	s.note("hook drain %d %v", n, err)
}

func (s *modelSide) apply(op modelOp) {
	s.hookFail = op.hookFail
	switch op.kind {
	case opSend:
		s.c.Send(op.msgs[0])
	case opSendBatch:
		s.c.SendBatch(op.msgs)
	case opDrain:
		s.draining = true
		defer func() { s.draining = false }()
		n, err := s.c.Drain(s.deliverer("drain", op.failAt, op.sendAt, op.msgs))
		s.note("drain %d %v", n, err)
	case opDrainBatch:
		s.draining = true
		defer func() { s.draining = false }()
		n, err := s.c.DrainBatch(func(ms []Message) error {
			// Deliver the whole slice after any sends, so a gather
			// buffer that aliases the queue shows as clobbered content.
			if op.sendAt >= 0 {
				for _, x := range op.msgs {
					s.c.Send(x)
				}
			}
			for _, m := range ms {
				s.note("batch got %s", describe(m))
			}
			if op.failAt >= 0 {
				return errInjected
			}
			return nil
		})
		s.note("drain batch %d %v", n, err)
	case opSetLimit:
		s.c.SetLimit(op.capacity, op.policy)
	case opTap:
		var fn func(Message)
		if op.on {
			fn = func(m Message) { s.note("tap %s", describe(m)) }
		}
		s.c.OnMessage(fn)
	case opHook:
		var fn func()
		if op.on {
			fn = s.hook
		}
		s.c.OnBackpressure(fn)
	case opDropObserver:
		var fn func(Message)
		if op.on {
			fn = func(m Message) { s.note("dropped %s", describe(m)) }
		}
		s.c.OnDrop(fn)
	}
}

// TestChannelMatchesModel drives the Channel and the reference model
// through identical random sequences of sends, batches, failing and
// re-entrant drains, limit and policy changes (including back to
// unbounded) and observer registrations, and demands after every step
// the same deliveries, taps, drops and hook calls in the same order,
// the same Stats, Pending and HighWaterSince.
func TestChannelMatchesModel(t *testing.T) {
	const seeds, steps = 200, 300
	var total Stats
	for seed := int64(1); seed <= seeds; seed++ {
		g := &modelGen{rng: rand.New(rand.NewSource(seed))}
		got := &modelSide{c: NewChannel()}
		want := &modelSide{c: newRefChannel()}
		for step := 0; step < steps; step++ {
			op := g.op()
			got.apply(op)
			want.apply(op)
			where := fmt.Sprintf("seed %d step %d (op %d)", seed, step, op.kind)
			if !reflect.DeepEqual(got.log, want.log) {
				t.Fatalf("%s: events diverged\n got %q\nwant %q", where, got.log, want.log)
			}
			got.log, want.log = got.log[:0], want.log[:0]
			if gs, ws := got.c.Stats(), want.c.Stats(); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("%s: Stats = %+v, want %+v", where, gs, ws)
			}
			if gp, wp := got.c.Pending(), want.c.Pending(); gp != wp {
				t.Fatalf("%s: Pending = %d, want %d", where, gp, wp)
			}
			if gh, wh := got.c.HighWaterSince(), want.c.HighWaterSince(); gh != wh {
				t.Fatalf("%s: HighWaterSince = %d, want %d", where, gh, wh)
			}
		}
		st := got.c.Stats()
		total.Dropped += st.Dropped
		total.Retried += st.Retried
		total.Backpressured += st.Backpressured
		total.Batches += st.Batches
		total.BatchesFlushed += st.BatchesFlushed
	}
	// Guard against a vacuous run: every overflow and bulk path fired.
	if total.Dropped == 0 || total.Retried == 0 || total.Backpressured == 0 ||
		total.Batches == 0 || total.BatchesFlushed == 0 {
		t.Fatalf("random sequences missed a path: %+v", total)
	}
}

// TestSteadySendDrainNoAllocs: once the queue and the gather buffer
// have grown to the working size, a send/drain cycle on either path
// allocates nothing.
func TestSteadySendDrainNoAllocs(t *testing.T) {
	c := NewChannel()
	batch := []Message{sample("m", 1), sample("m", 2), sample("m", 3)}
	deliver := func(Message) error { return nil }
	deliverBatch := func([]Message) error { return nil }
	cycle := func() {
		for i := 0; i < 8; i++ {
			c.Send(sample("m", float64(i)))
		}
		c.SendBatch(batch)
		if _, err := c.Drain(deliver); err != nil {
			t.Fatal(err)
		}
		c.SendBatch(batch)
		if _, err := c.DrainBatch(deliverBatch); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady send/drain cycle allocates %v times, want 0", allocs)
	}
}
