package dyninst

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nvmap/internal/vtime"
)

// refManager is the reference for node-scoped dispatch: one list per
// point, scanned linearly on every fire, with a node scope rewritten as
// the guard "ctx.Node == node && When(ctx)". The Manager must run the
// same actions in the same order and charge the same costs.
type refManager struct {
	costs   CostModel
	lists   map[PointID][]inserted
	seq     int
	stats   Stats
	perturb func(node int, d vtime.Duration)
}

func (r *refManager) insert(p PointID, s Snippet) int {
	if s.OnNode != AllNodes {
		node, residual := s.OnNode-1, s.When
		s.When = func(ctx Context) bool {
			return ctx.Node == node && (residual == nil || residual(ctx))
		}
	}
	r.seq++
	r.lists[p] = append(r.lists[p], inserted{seq: r.seq, snippet: s})
	r.stats.Inserted++
	return r.seq
}

func (r *refManager) remove(p PointID, seq int) error {
	list, ok := without(r.lists[p], seq)
	if !ok {
		return fmt.Errorf("no snippet %d at %v", seq, p)
	}
	r.lists[p] = list
	r.stats.Removed++
	return nil
}

func (r *refManager) removeAll(p PointID) int {
	n := len(r.lists[p])
	delete(r.lists, p)
	r.stats.Removed += n
	return n
}

func (r *refManager) fire(p PointID, ctx Context) {
	var cost vtime.Duration
	for _, ins := range r.lists[p] {
		if ins.snippet.When != nil {
			cost += r.costs.PerPredicate
			if !ins.snippet.When(ctx) {
				r.stats.Suppressed++
				continue
			}
		}
		cost += r.costs.PerFire
		r.stats.Fires++
		if ins.snippet.Do != nil {
			ins.snippet.Do(ctx)
		}
	}
	if cost > 0 {
		r.stats.Perturbation += cost
		if r.perturb != nil && ctx.Node >= 0 {
			r.perturb(ctx.Node, cost)
		}
	}
}

// charge is one per-node perturbation call.
type charge struct {
	node int
	d    vtime.Duration
}

// TestScopedDispatchMatchesLinearScan drives the Manager and the
// reference with the same random Insert/Remove/RemoveAll/Fire sequence —
// unscoped, scoped and scoped-with-residual snippets; fires from the
// control processor, in-range nodes and nodes past every scope — and
// requires identical action order, Stats and per-node charges.
func TestScopedDispatchMatchesLinearScan(t *testing.T) {
	points := []PointID{Entry("f"), Exit("f"), Mapping("alloc"), Entry("g")}
	const scopeNodes = 6 // scopes name nodes 0..5; fires reach node 7
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		costs := CostModel{PerFire: 300, PerPredicate: 40}
		// Both managers hold the same snippets; an action logs into
		// whichever manager is firing.
		var gotLog, wantLog []int
		var into *[]int
		var gotCharges, wantCharges []charge
		m := NewManager(costs, func(n int, d vtime.Duration) { gotCharges = append(gotCharges, charge{n, d}) })
		ref := &refManager{costs: costs, lists: map[PointID][]inserted{},
			perturb: func(n int, d vtime.Duration) { wantCharges = append(wantCharges, charge{n, d}) }}

		type live struct {
			h   Handle
			p   PointID
			seq int
		}
		var handles []live
		var dead []live
		for step := 0; step < 300; step++ {
			p := points[rng.Intn(len(points))]
			switch op := rng.Intn(20); {
			case op < 8: // insert
				id := step
				s := Snippet{Name: fmt.Sprint(id)}
				if rng.Intn(3) > 0 {
					s.OnNode = 1 + rng.Intn(scopeNodes)
				}
				if rng.Intn(2) == 0 {
					mod := vtime.Time(2 + rng.Intn(3))
					s.When = func(ctx Context) bool { return (ctx.Now+vtime.Time(id))%mod != 0 }
				}
				s.Do = func(Context) { *into = append(*into, id) }
				handles = append(handles, live{m.Insert(p, s), p, ref.insert(p, s)})
			case op < 11 && len(handles) > 0: // remove a live snippet
				j := rng.Intn(len(handles))
				l := handles[j]
				handles = append(handles[:j], handles[j+1:]...)
				dead = append(dead, l)
				if err, want := m.Remove(l.h), ref.remove(l.p, l.seq); (err == nil) != (want == nil) {
					t.Fatalf("seed %d step %d: Remove = %v, reference %v", seed, step, err, want)
				}
			case op < 12 && len(dead) > 0: // remove a stale handle
				l := dead[rng.Intn(len(dead))]
				if err, want := m.Remove(l.h), ref.remove(l.p, l.seq); (err == nil) != (want == nil) {
					t.Fatalf("seed %d step %d: stale Remove = %v, reference %v", seed, step, err, want)
				}
			case op < 13: // remove everything at a point
				if got, want := m.RemoveAll(p), ref.removeAll(p); got != want {
					t.Fatalf("seed %d step %d: RemoveAll = %d, reference %d", seed, step, got, want)
				}
				kept := handles[:0]
				for _, l := range handles {
					if l.p == p {
						dead = append(dead, l)
					} else {
						kept = append(kept, l)
					}
				}
				handles = kept
			default: // fire from the CP, a scoped node or a node past every scope
				ctx := Context{Node: rng.Intn(scopeNodes+3) - 1, Now: vtime.Time(step)}
				into = &gotLog
				m.Fire(p, ctx)
				into = &wantLog
				ref.fire(p, ctx)
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("seed %d step %d: actions %v, reference %v", seed, step, gotLog, wantLog)
			}
			if got := m.Stats(); got != ref.stats {
				t.Fatalf("seed %d step %d: stats %+v, reference %+v", seed, step, got, ref.stats)
			}
			if !reflect.DeepEqual(gotCharges, wantCharges) {
				t.Fatalf("seed %d step %d: charges %v, reference %v", seed, step, gotCharges, wantCharges)
			}
			if got, want := m.Instrumented(p), len(ref.lists[p]) > 0; got != want {
				t.Fatalf("seed %d step %d: Instrumented(%v) = %v, reference %v", seed, step, p, got, want)
			}
		}
	}
}

func TestNegativeNodeScopePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert accepted a negative node scope")
		}
	}()
	NewManager(CostModel{}, nil).Insert(Entry("f"), Snippet{OnNode: -1})
}
