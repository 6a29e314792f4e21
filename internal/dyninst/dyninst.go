// Package dyninst simulates the dynamic instrumentation technology the
// paper builds on (Hollingsworth, Miller & Cargille; Section 4.1): an
// external tool changes the image of a running executable to collect
// performance data. The technique defines points at which instrumentation
// can be inserted, predicates that guard the firing of instrumentation
// code, and primitives that implement counters and timers.
//
// Our "executable" is the simulated runtime of packages cmrts/cmf, which
// fires well-known points (function entry/exit, mapping points such as
// array-allocation returns) as it executes. A Manager holds the snippets
// currently inserted at each point; inserting and deleting snippets while
// the application runs is the whole point of the technology — "any point
// that does not contain instrumentation does not cause any execution
// perturbations."
//
// Perturbation is modelled honestly: every fired snippet (and every
// predicate evaluation that suppresses one) charges a configurable cost to
// the node that executed it, so experiments can compare dynamic
// instrumentation against always-on instrumentation quantitatively.
package dyninst

import (
	"fmt"
	"sort"
	"sync/atomic"

	"nvmap/internal/vtime"
)

// PointKind says where in a function a point sits.
type PointKind int

// Point kinds. MappingPoint marks designated mapping points (Section
// 4.1): e.g. the return point of a runtime routine that allocates
// parallel data objects, where data-to-processor mappings become known.
const (
	PointEntry PointKind = iota
	PointExit
	MappingPoint
)

// String names the kind.
func (k PointKind) String() string {
	switch k {
	case PointEntry:
		return "entry"
	case PointExit:
		return "exit"
	case MappingPoint:
		return "mapping"
	default:
		return fmt.Sprintf("PointKind(%d)", int(k))
	}
}

// PointID identifies one instrumentation point in the executable image.
type PointID struct {
	Function string
	Where    PointKind
}

// Entry returns the entry point of a function.
func Entry(fn string) PointID { return PointID{Function: fn, Where: PointEntry} }

// Exit returns the exit point of a function.
func Exit(fn string) PointID { return PointID{Function: fn, Where: PointExit} }

// Mapping returns the designated mapping point of a function.
func Mapping(fn string) PointID { return PointID{Function: fn, Where: MappingPoint} }

// String renders "function:kind".
func (p PointID) String() string { return p.Function + ":" + p.Where.String() }

// Context carries the execution state visible to a snippet when its point
// fires: which node, the node's virtual clock, and the arguments of the
// executing operation (the CMRTS node code block dispatcher passes its
// input arguments so SAS modules can search them for requested arrays —
// Section 6.1).
type Context struct {
	Node  int
	Now   vtime.Time
	Tag   string
	Elems int
	Bytes int
	// Args carries operation arguments, e.g. the identifiers of arrays
	// passed to a node code block.
	Args []string
}

// Predicate guards a snippet; nil means always fire.
type Predicate func(Context) bool

// Action is the body of a snippet.
type Action func(Context)

// AllNodes is the Snippet.OnNode scope of a snippet that runs wherever
// its point fires.
const AllNodes = 0

// Snippet is a unit of instrumentation code.
type Snippet struct {
	// Name labels the snippet for diagnostics.
	Name string
	// OnNode scopes the snippet to one node, stored as node+1 so the zero
	// value (AllNodes) means every node and the control processor. A
	// scoped snippet is priced as if its guard were "ctx.Node == node &&
	// When(ctx)": one predicate evaluation on every fire of its point,
	// suppressed unless its own node fired it. Only that node's fires
	// touch it, so a node focus costs the host what it covers.
	OnNode int
	// When guards execution (the paper's predicate). On a scoped snippet
	// it is the residual guard, evaluated only on the scoped node.
	When Predicate
	// Do runs when the predicate passes (the paper's primitive calls).
	Do Action
}

// Handle identifies an inserted snippet for later removal.
type Handle struct {
	point PointID
	seq   int
	on    int // the snippet's OnNode
}

// Stats aggregates instrumentation activity and modelled perturbation.
type Stats struct {
	Inserted   int
	Removed    int
	Fires      int // snippets whose action ran
	Suppressed int // snippets whose predicate returned false
	// Perturbation is the total virtual time charged to application nodes
	// by instrumentation execution.
	Perturbation vtime.Duration
}

// CostModel prices instrumentation execution.
type CostModel struct {
	// PerFire is charged for each snippet action that runs.
	PerFire vtime.Duration
	// PerPredicate is charged for each guard evaluation (pass or fail).
	PerPredicate vtime.Duration
}

// DefaultCosts approximates the trampoline costs reported for Paradyn-era
// dynamic instrumentation: a predicate test is cheap, a full snippet
// execution costs a few hundred nanoseconds.
func DefaultCosts() CostModel {
	return CostModel{PerFire: 300 * vtime.Nanosecond, PerPredicate: 40 * vtime.Nanosecond}
}

type inserted struct {
	seq     int
	snippet Snippet
}

// scopedPoint holds one point's node-scoped snippets, bucketed by node.
type scopedPoint struct {
	n      int          // scoped snippets at the point, over all nodes
	byNode [][]inserted // byNode[node] in insertion order
}

// without returns list minus the snippet with sequence number seq, and
// whether it was there.
func without(list []inserted, seq int) ([]inserted, bool) {
	for j, ins := range list {
		if ins.seq == seq {
			return append(list[:j], list[j+1:]...), true
		}
	}
	return list, false
}

// Manager is the instrumentation controller for one executable image.
// Mutation (Insert/Remove/Fire) is not safe for concurrent use — the
// simulated machine executes sequentially in virtual time — but Stats
// may be read concurrently with a run.
//
// Points are interned to small dense indices the first time they are
// named: the snippet lists live in a slice indexed by point index, and a
// pre-resolved PointRef fires with a bounds check instead of hashing the
// PointID's function name. The executing substrate fires every potential
// point on every operation, so that hash was the single largest fixed
// cost of an uninstrumented point.
//
// lists holds each point's unscoped snippets. Node-scoped snippets live
// in scoped, a per-(point, node) table that exists only at points that
// have any: a point without them costs no more than before scoping.
type Manager struct {
	costs CostModel
	ids   map[PointID]int32
	lists [][]inserted
	// scoped is indexed like lists but only as long as the highest point
	// index that has held a scoped snippet; a nil entry means none.
	scoped  []*scopedPoint
	nextSeq int
	// stats counters are atomic so a metrics scrape can read them while
	// the driving goroutine fires snippets; every writer is the single
	// driving goroutine (instrumentation never fires inside parallel
	// node regions).
	stats managerStats
	// perturb charges instrumentation overhead to the executing node;
	// nil disables perturbation modelling.
	perturb func(node int, d vtime.Duration)
}

// NewManager builds a manager. perturb may be nil (no perturbation
// accounting against node clocks; stats still accumulate).
func NewManager(costs CostModel, perturb func(node int, d vtime.Duration)) *Manager {
	return &Manager{
		costs: costs,
		// A session interns a few dozen points; sizing the table up front
		// skips the map-growth ladder during wiring.
		ids:     make(map[PointID]int32, 32),
		lists:   make([][]inserted, 0, 32),
		perturb: perturb,
	}
}

// index interns a point, creating an (empty) slot on first sight.
func (m *Manager) index(p PointID) int32 {
	if i, ok := m.ids[p]; ok {
		return i
	}
	i := int32(len(m.lists))
	m.ids[p] = i
	m.lists = append(m.lists, nil)
	return i
}

// PointRef is a pre-resolved instrumentation point: Resolve once where
// the point name is known (session wiring, runtime construction), then
// Fire per event without re-hashing the name. A ref stays valid for the
// manager's lifetime — Insert and Remove change what is attached at the
// point, never where the point lives.
type PointRef struct {
	m *Manager
	i int32
}

// Resolve interns a point and returns a reference for repeated firing.
func (m *Manager) Resolve(p PointID) PointRef {
	return PointRef{m: m, i: m.index(p)}
}

// Fire executes the instrumentation at the referenced point.
func (r PointRef) Fire(ctx Context) { r.m.fireAt(r.i, ctx) }

// Insert adds a snippet at a point of the running image and returns a
// removal handle. A negative OnNode is a caller bug and panics.
func (m *Manager) Insert(p PointID, s Snippet) Handle {
	if s.OnNode < AllNodes {
		panic(fmt.Sprintf("dyninst: snippet %q scoped to node %d", s.Name, s.OnNode-1))
	}
	m.nextSeq++
	i := m.index(p)
	ins := inserted{seq: m.nextSeq, snippet: s}
	if s.OnNode == AllNodes {
		m.lists[i] = append(m.lists[i], ins)
	} else {
		for int(i) >= len(m.scoped) {
			m.scoped = append(m.scoped, nil)
		}
		sp := m.scoped[i]
		if sp == nil {
			sp = &scopedPoint{}
			m.scoped[i] = sp
		}
		node := s.OnNode - 1
		for node >= len(sp.byNode) {
			sp.byNode = append(sp.byNode, nil)
		}
		sp.byNode[node] = append(sp.byNode[node], ins)
		sp.n++
	}
	m.stats.inserted.Add(1)
	return Handle{point: p, seq: m.nextSeq, on: s.OnNode}
}

// scopedAt returns point i's node-scoped snippets, nil when it has none.
func (m *Manager) scopedAt(i int32) *scopedPoint {
	if int(i) < len(m.scoped) {
		return m.scoped[i]
	}
	return nil
}

// Remove deletes a previously inserted snippet. Removing twice is an
// error.
func (m *Manager) Remove(h Handle) error {
	if i, ok := m.ids[h.point]; ok {
		if h.on == AllNodes {
			if list, ok := without(m.lists[i], h.seq); ok {
				m.lists[i] = list
				m.stats.removed.Add(1)
				return nil
			}
		} else if sp := m.scopedAt(i); sp != nil && h.on <= len(sp.byNode) {
			if list, ok := without(sp.byNode[h.on-1], h.seq); ok {
				sp.byNode[h.on-1] = list
				if sp.n--; sp.n == 0 {
					m.scoped[i] = nil
				}
				m.stats.removed.Add(1)
				return nil
			}
		}
	}
	return fmt.Errorf("dyninst: no snippet %d at %v", h.seq, h.point)
}

// RemoveAll deletes every snippet at a point, scoped or not, returning
// how many were removed. This is how "users turn off all dynamic mapping
// instrumentation points at once" (Section 5).
func (m *Manager) RemoveAll(p PointID) int {
	i, ok := m.ids[p]
	if !ok {
		return 0
	}
	n := len(m.lists[i])
	m.lists[i] = nil
	if sp := m.scopedAt(i); sp != nil {
		n += sp.n
		m.scoped[i] = nil
	}
	if n > 0 {
		m.stats.removed.Add(int64(n))
	}
	return n
}

// Fire executes the instrumentation at a point. The executing substrate
// calls this at every potential point; an uninstrumented point returns
// immediately with zero cost, which is the central property of dynamic
// instrumentation. Callers on hot paths should Resolve the point once
// and fire through the PointRef.
func (m *Manager) Fire(p PointID, ctx Context) {
	if i, ok := m.ids[p]; ok {
		m.fireAt(i, ctx)
	}
}

// fireAt runs the snippets at point index i: the unscoped list and the
// firing node's scoped list, merged by insertion order. Every other
// scoped snippet is charged as a failed guard in one multiply, which
// keeps Fires, Suppressed, Perturbation and the per-node charge equal to
// a linear scan that tested "ctx.Node == node" on each. Stats are
// batched into at most one atomic add per counter per call.
func (m *Manager) fireAt(i int32, ctx Context) {
	list := m.lists[i]
	var mine []inserted
	others := 0
	if sp := m.scopedAt(i); sp != nil {
		others = sp.n
		if ctx.Node >= 0 && ctx.Node < len(sp.byNode) {
			mine = sp.byNode[ctx.Node]
			others -= len(mine)
		}
	} else if len(list) == 0 {
		return
	}
	cost := m.costs.PerPredicate.Scale(others)
	fires, suppressed := 0, others
	for len(list) > 0 || len(mine) > 0 {
		var ins inserted
		scoped := len(mine) > 0 && (len(list) == 0 || mine[0].seq < list[0].seq)
		if scoped {
			ins, mine = mine[0], mine[1:]
		} else {
			ins, list = list[0], list[1:]
		}
		if scoped || ins.snippet.When != nil {
			cost += m.costs.PerPredicate
			if ins.snippet.When != nil && !ins.snippet.When(ctx) {
				suppressed++
				continue
			}
		}
		cost += m.costs.PerFire
		fires++
		if ins.snippet.Do != nil {
			ins.snippet.Do(ctx)
		}
	}
	if fires > 0 {
		m.stats.fires.Add(int64(fires))
	}
	if suppressed > 0 {
		m.stats.suppressed.Add(int64(suppressed))
	}
	if cost > 0 {
		m.stats.perturbation.Add(int64(cost))
		if m.perturb != nil && ctx.Node >= 0 {
			m.perturb(ctx.Node, cost)
		}
	}
}

// Instrumented reports whether any snippet is currently inserted at p.
func (m *Manager) Instrumented(p PointID) bool {
	i, ok := m.ids[p]
	return ok && (len(m.lists[i]) > 0 || m.scopedAt(i) != nil)
}

// ActivePoints returns the currently instrumented points, sorted.
func (m *Manager) ActivePoints() []PointID {
	out := make([]PointID, 0, len(m.ids))
	for p, i := range m.ids {
		if len(m.lists[i]) > 0 || m.scopedAt(i) != nil {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Function != out[j].Function {
			return out[i].Function < out[j].Function
		}
		return out[i].Where < out[j].Where
	})
	return out
}

// managerStats is the internal atomic mirror of Stats.
type managerStats struct {
	inserted     atomic.Int64
	removed      atomic.Int64
	fires        atomic.Int64
	suppressed   atomic.Int64
	perturbation atomic.Int64
}

// Stats returns a copy of the instrumentation statistics. Safe to call
// while the session runs.
func (m *Manager) Stats() Stats {
	return Stats{
		Inserted:     int(m.stats.inserted.Load()),
		Removed:      int(m.stats.removed.Load()),
		Fires:        int(m.stats.fires.Load()),
		Suppressed:   int(m.stats.suppressed.Load()),
		Perturbation: vtime.Duration(m.stats.perturbation.Load()),
	}
}
