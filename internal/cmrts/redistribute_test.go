package cmrts

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nvmap/internal/dyninst"
	"nvmap/internal/machine"
)

// The redistribution kernels move whole slab ranges and derive their
// transfer matrices from block-interval overlaps. The reference below is
// the direct definition they replace: a linear scan for each element's
// home node and one move per element.

// refHomeNode scans the block offsets for the node owning flat index i;
// indexes at or past the end clamp to the last node.
func refHomeNode(offsets []int, i int) int {
	for n := 0; n+1 < len(offsets); n++ {
		if i < offsets[n+1] {
			return n
		}
	}
	return len(offsets) - 2
}

// transfer is one point-to-point send of a redistribution.
type transfer struct{ src, dst, bytes int }

// refMove moves old[i] to perm(i) element by element; elements whose
// target falls outside the array are dropped and vacated positions take
// fill. It returns the new data and the sends the movement implies, in
// (source, destination) order.
func refMove(offsets []int, old []float64, perm func(int) int, fill float64) ([]float64, []transfer) {
	nodes := len(offsets) - 1
	counts := make([][]int, nodes)
	for n := range counts {
		counts[n] = make([]int, nodes)
	}
	next := make([]float64, len(old))
	for i := range next {
		next[i] = fill
	}
	for i, v := range old {
		j := perm(i)
		if j < 0 || j >= len(old) {
			continue
		}
		next[j] = v
		counts[refHomeNode(offsets, i)][refHomeNode(offsets, j)]++
	}
	var sends []transfer
	for src := range counts {
		for dst, c := range counts[src] {
			if src != dst && c > 0 {
				sends = append(sends, transfer{src, dst, c * elemBytes})
			}
		}
	}
	return next, sends
}

// recordingRuntime builds a runtime whose machine logs every send.
func recordingRuntime(t *testing.T, nodes int) (*Runtime, *[]transfer) {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	var sends []transfer
	m.Observe(func(e machine.Event) {
		if e.Kind == machine.EvSend {
			sends = append(sends, transfer{e.Node, e.Peer, e.Bytes})
		}
	})
	rt, err := New(m, dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode), DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return rt, &sends
}

func TestHomeNodeMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		size, nodes := 1+r.Intn(5000), 1+r.Intn(40)
		if trial < 40 {
			size = 1 + r.Intn(2*nodes) // sizes around the node count
		}
		rt := newRuntime(t, nodes)
		a := alloc(t, rt, "A", size)
		for i := -3; i < size+3; i++ {
			if got, want := a.HomeNode(i), refHomeNode(a.offsets, i); got != want {
				t.Fatalf("size %d nodes %d: HomeNode(%d) = %d, linear scan %d", size, nodes, i, got, want)
			}
		}
	}
}

// TestRedistributionMatchesReference checks Rotate, Shift, Transpose and
// Sort against the per-element reference: identical data and an
// identical ordered send sequence, over random sizes, node counts (empty
// sections included) and offsets far beyond the array.
func TestRedistributionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		nodes := 1 + r.Intn(40)
		size := 1 + r.Intn(5000)
		if trial%4 == 0 {
			size = 1 + r.Intn(2*nodes)
		}
		offset := r.Intn(6*size+1) - 3*size
		rows := 1 + r.Intn(70)
		cols := 1 + r.Intn(70)
		if trial%4 == 1 {
			rows, cols = 1+r.Intn(3), 1+r.Intn(3)
		}
		// Few distinct values, so Sort's stability decides the ranks.
		distinct := 1 + r.Intn(size)
		vals := make([]float64, max(size, rows*cols))
		for i := range vals {
			vals[i] = float64(r.Intn(distinct)) - float64(distinct)/2
		}

		ops := []struct {
			name  string
			shape []int
			run   func(rt *Runtime, a *Array) error
			ref   func(a *Array, old []float64) ([]float64, []transfer)
		}{
			{"Rotate", []int{size}, func(rt *Runtime, a *Array) error { return rt.Rotate(a, offset, "r") },
				func(a *Array, old []float64) ([]float64, []transfer) {
					off := ((offset % size) + size) % size
					return refMove(a.offsets, old, func(i int) int { return (i + off) % size }, 0)
				}},
			{"Shift", []int{size}, func(rt *Runtime, a *Array) error { return rt.Shift(a, offset, -7, "s") },
				func(a *Array, old []float64) ([]float64, []transfer) {
					return refMove(a.offsets, old, func(i int) int { return i + offset }, -7)
				}},
			{"Transpose", []int{rows, cols}, func(rt *Runtime, a *Array) error { return rt.Transpose(a, "t") },
				func(a *Array, old []float64) ([]float64, []transfer) {
					return refMove(a.offsets, old, func(i int) int { return (i%cols)*rows + i/cols }, 0)
				}},
			{"Sort", []int{size}, func(rt *Runtime, a *Array) error { return rt.Sort(a, "o") },
				func(a *Array, old []float64) ([]float64, []transfer) {
					idx := make([]int, len(old))
					for i := range idx {
						idx[i] = i
					}
					sort.SliceStable(idx, func(x, y int) bool { return old[idx[x]] < old[idx[y]] })
					rank := make([]int, len(old))
					for k, i := range idx {
						rank[i] = k
					}
					return refMove(a.offsets, old, func(i int) int { return rank[i] }, 0)
				}},
		}
		for _, op := range ops {
			rt, sends := recordingRuntime(t, nodes)
			a := alloc(t, rt, "A", op.shape...)
			if err := rt.ElementwiseIndexed("init", a, nil, 1, indexed(func(i int) float64 { return vals[i] })); err != nil {
				t.Fatal(err)
			}
			old := a.Flat()
			wantData, wantSends := op.ref(a, old)
			*sends = nil
			if err := op.run(rt, a); err != nil {
				t.Fatal(err)
			}
			if got := a.Flat(); !slices.Equal(got, wantData) {
				t.Fatalf("%s size %d shape %v nodes %d offset %d: data differs from the per-element reference",
					op.name, size, op.shape, nodes, offset)
			}
			if !slices.Equal(*sends, wantSends) {
				t.Fatalf("%s size %d shape %v nodes %d offset %d: sends\n got %v\nwant %v",
					op.name, size, op.shape, nodes, offset, *sends, wantSends)
			}
		}
	}
}
