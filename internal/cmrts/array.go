package cmrts

import (
	"fmt"
	"strconv"
	"strings"
)

// ArrayID uniquely identifies a parallel array instance for the lifetime
// of a run. IDs are minted by the runtime ("pvar3") the way CMRTS handed
// Paradyn "the proper CMRTS identifier" for each allocated array.
type ArrayID string

// Array is a parallel array distributed across the partition's nodes.
// Arrays are the fundamental source of parallelism in data-parallel CM
// Fortran: they are the only data objects that use memory on the nodes,
// and program performance depends on the efficiency of their computation
// and communication (Section 6.1).
//
// Data is stored row-major in one slab, block-distributed as contiguous
// flat chunks: node n holds flat indices [offsets[n], offsets[n+1]), the
// window section(n) of the slab. Real values are carried so reductions
// and examples produce checkable results.
type Array struct {
	ID    ArrayID
	Name  string
	Shape []int

	// data is the slab in flat order; offsets has len nodes+1 and is
	// blockOffsets(len(data), nodes), so node sections tile data exactly.
	data    []float64
	offsets []int

	freed bool
}

// Size returns the total element count.
func (a *Array) Size() int { return len(a.data) }

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.Shape) }

// LocalLen returns the number of elements node n holds.
func (a *Array) LocalLen(n int) int { return a.offsets[n+1] - a.offsets[n] }

// section is node n's local window of the slab. The capacity is clipped
// so a kernel's append could never spill into the next node's section.
func (a *Array) section(n int) []float64 {
	lo, hi := a.offsets[n], a.offsets[n+1]
	return a.data[lo:hi:hi]
}

// Subregion describes which contiguous flat slice of the array one node
// stores — the data-to-processor mapping the runtime reports to the tool
// when the array is allocated.
type Subregion struct {
	Node int
	Lo   int // inclusive flat index
	Hi   int // exclusive flat index
}

// String renders e.g. "node2:[512,768)".
func (s Subregion) String() string {
	return fmt.Sprintf("node%d:[%d,%d)", s.Node, s.Lo, s.Hi)
}

// Subregions returns the data-to-node mapping.
func (a *Array) Subregions() []Subregion {
	nodes := len(a.offsets) - 1
	out := make([]Subregion, 0, nodes)
	for n := 0; n < nodes; n++ {
		out = append(out, Subregion{Node: n, Lo: a.offsets[n], Hi: a.offsets[n+1]})
	}
	return out
}

// HomeNode returns the node owning flat index i. Block distribution is
// closed-form: the first size%nodes nodes hold base+1 elements and the
// rest hold base. Indexes at or past Size() clamp to the last node and
// negative ones to node 0.
func (a *Array) HomeNode(i int) int {
	nodes := len(a.offsets) - 1
	size := len(a.data)
	if i >= size {
		return nodes - 1
	}
	if i < 0 {
		return 0
	}
	base, extra := size/nodes, size%nodes
	big := extra * (base + 1)
	if i < big {
		return i / (base + 1)
	}
	// i < size implies size > big, so base >= 1 here.
	return extra + (i-big)/base
}

// At reads the element at flat index i. It is test and debug access
// only: it costs no simulated time and no kernel reads through it.
func (a *Array) At(i int) float64 { return a.data[i] }

// Flat copies the whole array into one slice (test/debug access).
func (a *Array) Flat() []float64 { return append([]float64(nil), a.data...) }

// shapeString renders "1024x1024".
func shapeString(shape []int) string {
	var b strings.Builder
	for i, d := range shape {
		if i > 0 {
			b.WriteByte('x')
		}
		b.WriteString(strconv.Itoa(d))
	}
	return b.String()
}

// blockOffsets splits size elements into nodes balanced contiguous
// chunks: the first size%nodes chunks get one extra element.
func blockOffsets(size, nodes int) []int {
	offsets := make([]int, nodes+1)
	base := size / nodes
	extra := size % nodes
	pos := 0
	for n := 0; n < nodes; n++ {
		offsets[n] = pos
		pos += base
		if n < extra {
			pos++
		}
	}
	offsets[nodes] = pos
	return offsets
}

// addOverlap adds to row (one source node's row of a transfer matrix)
// how many of the destination flat indices [lo, hi) each node holds.
func (a *Array) addOverlap(row []int, lo, hi int) {
	if lo >= hi {
		return
	}
	for d := a.HomeNode(lo); d < len(row) && a.offsets[d] < hi; d++ {
		row[d] += min(hi, a.offsets[d+1]) - max(lo, a.offsets[d])
	}
}
