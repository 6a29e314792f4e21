package mdl

import (
	"errors"
	"fmt"

	"nvmap/internal/dyninst"
	"nvmap/internal/vtime"
)

// Instance is one enabled metric-focus pair: the primitives allocated for
// it (one counter or timer per node, plus one for the control processor,
// held as a single value slab) and the snippets inserted into the running
// application. Paradyn "compiles the descriptions into code that is
// inserted into running applications at precisely the moment when the
// particular metric is requested" — Instantiate is that moment.
type Instance struct {
	Metric *Metric

	width    int // nodes covered by the focus; divisor for aggregate avg
	counters []dyninst.Counter
	timers   []dyninst.Timer
	handles  []dyninst.Handle
	mgr      *dyninst.Manager
	removed  bool
	// journal, when set, records worker-node probe fires for crash
	// recovery (see recover.go).
	journal func(node int, f ProbeFire)
}

// SetWidth declares how many nodes the instance's focus covers. Metrics
// declared "aggregate avg" divide by this width: a collective operation
// fires once on every participating node, so the average over the focus
// counts each operation exactly once. The default is the full partition.
func (inst *Instance) SetWidth(w int) {
	if w > 0 {
		inst.width = w
	}
}

// slot maps a context node (CP = -1) to a primitive index. It is also
// the dyninst.Snippet.OnNode encoding of a node scope.
func slot(node int) int { return node + 1 }

// Instantiate allocates primitives and inserts the metric's probes. A
// focus constrains the metric in two parts: onNode scopes every probe to
// one node (dyninst.AllNodes, or node+1 as in dyninst.Snippet.OnNode),
// and pred (nil = unconstrained) guards the rest — an array's SAS flag,
// a statement's block, or any conjunction the tool builds.
func (m *Metric) Instantiate(mgr *dyninst.Manager, nodes, onNode int, pred dyninst.Predicate) (*Instance, error) {
	if mgr == nil {
		return nil, errors.New("mdl: nil instrumentation manager")
	}
	if nodes < 1 {
		return nil, errors.New("mdl: need at least one node")
	}
	if onNode < dyninst.AllNodes || onNode > nodes {
		return nil, errors.New("mdl: node scope outside the partition")
	}
	inst := &Instance{Metric: m, width: nodes, mgr: mgr}
	if m.Kind == Count {
		inst.counters = make([]dyninst.Counter, nodes+1)
	} else {
		inst.timers = make([]dyninst.Timer, nodes+1)
	}
	inst.handles = make([]dyninst.Handle, len(m.Probes))
	for i, probe := range m.Probes {
		inst.handles[i] = mgr.Insert(probe.Point, dyninst.Snippet{
			Name:   m.ID,
			OnNode: onNode,
			When:   pred,
			Do:     inst.actionFor(i, probe),
		})
	}
	return inst, nil
}

func (inst *Instance) actionFor(i int, probe Probe) dyninst.Action {
	return func(ctx dyninst.Context) {
		inst.apply(probe, ctx.Node, ctx.Now)
		if inst.journal != nil && ctx.Node >= 0 {
			inst.journal(ctx.Node, ProbeFire{Probe: i, At: ctx.Now})
		}
	}
}

// Value reads the metric's aggregate value as of now: event counts for
// count metrics, seconds for time metrics. Per-node primitives are
// aggregated per the metric's declaration (sum or avg over nodes).
func (inst *Instance) Value(now vtime.Time) float64 {
	var total float64
	if inst.Metric.Kind == Count {
		for _, c := range inst.counters {
			total += c.Value()
		}
	} else {
		for _, t := range inst.timers {
			total += t.Value(now).Seconds()
		}
	}
	if inst.Metric.Agg == AggAvg {
		total /= float64(inst.width)
	}
	return total
}

// NodeValue reads one node's primitive (CP = -1).
func (inst *Instance) NodeValue(node int, now vtime.Time) float64 {
	if inst.Metric.Kind == Count {
		return inst.counters[slot(node)].Value()
	}
	return inst.timers[slot(node)].Value(now).Seconds()
}

// Remove deletes the instance's snippets from the application. The
// primitives retain their final values. Every handle still inserted is
// removed even when others are already gone (Manager.RemoveAll on one
// of the metric's points); the missing ones are reported together.
func (inst *Instance) Remove() error {
	if inst.removed {
		return fmt.Errorf("mdl: instance %s already removed", inst.Metric.ID)
	}
	inst.removed = true
	var errs []error
	for _, h := range inst.handles {
		if err := inst.mgr.Remove(h); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("mdl: instance %s: %w", inst.Metric.ID, errors.Join(errs...))
	}
	return nil
}
