package cmf

import (
	"fmt"
	"math"
	"sync"

	"nvmap/internal/cmrts"
)

// stripWidth is the vector length of the elementwise evaluator. A node
// section is evaluated one strip at a time, so temporaries are strip
// sized however large the section: whole-section temporaries would
// allocate in proportion to the array on every statement.
const stripWidth = 256

// strips recycles temporary strips across statements and workers.
var strips = sync.Pool{New: func() any { return new([stripWidth]float64) }}

// vop is one vector operation of a compiled elementwise expression.
type vop uint8

const (
	vAdd vop = iota
	vSub
	vMul
	vDiv
	vNeg
	vSqrt
	vAbs
	vExp
	vLog
	vIndex  // the FORALL index value, 1-based
	vCopy   // the operand itself (the right-hand side is a bare leaf or scalar)
	vSelect // WHERE: where cmp(a, b) holds, the result is c; elsewhere it is left as is
)

// operandKind says where an operand's values live.
type operandKind uint8

const (
	kLeaf  operandKind = iota // a source array's node section
	kTemp                     // a temporary strip
	kConst                    // a strip filled with one of vprog.consts
)

// operand is an input of a vector operation.
type operand struct {
	kind operandKind
	slot int // index into the leaves, temps or consts
}

// vinstr is one vector operation: out (a temp index, or dest for the
// statement's destination) = op(a, b[, c]).
type vinstr struct {
	op      vop
	cmp     func(a, b float64) bool // vSelect's comparator
	out     int
	a, b, c operand
}

// dest marks the operation that writes the statement's destination.
const dest = -1

// vprog is an elementwise statement compiled for strip-mined evaluation.
// Operations run in order over each strip; only the last one writes the
// destination, so every read of a strip's inputs, the destination
// included (A = A*B - A), happens before the destination strip changes.
type vprog struct {
	code   []vinstr
	temps  int
	consts []float64 // scalar operands, each broadcast to a strip once per section
	leaves []*cmrts.Array
	flops  int
}

// vcompiler lowers expressions onto a vprog. Temps are allocated as a
// stack: a subexpression evaluated at depth d leaves its result in temp d.
type vcompiler struct {
	e         *Executor
	forallVar string
	p         *vprog
}

func (e *Executor) newVCompiler(forallVar string) *vcompiler {
	return &vcompiler{e: e, forallVar: forallVar, p: &vprog{}}
}

// emit appends an operation writing temp depth and returns that temp.
func (c *vcompiler) emit(in vinstr, depth int) operand {
	in.out = depth
	c.p.code = append(c.p.code, in)
	c.p.temps = max(c.p.temps, depth+1)
	return operand{kind: kTemp, slot: depth}
}

// expr compiles ex at stack depth depth. Array leaves join p.leaves in
// evaluation order; scalar and loop-variable references are captured
// now, at statement execution, matching Fortran semantics. flops counts
// one per operator and four per intrinsic call.
func (c *vcompiler) expr(ex Expr, depth int) (operand, error) {
	switch x := ex.(type) {
	case *Num:
		return c.constant(x.Val), nil
	case *Ref:
		if a, isArr := c.e.arrays[x.Name]; isArr {
			return c.leaf(a), nil
		}
		if c.forallVar != "" && x.Name == c.forallVar {
			return c.emit(vinstr{op: vIndex}, depth), nil
		}
		v, err := c.e.evalScalar(x)
		if err != nil {
			return operand{}, err
		}
		return c.constant(v), nil
	case *Index:
		a, ok := c.e.arrays[x.Name]
		if !ok {
			return operand{}, fmt.Errorf("cmf: internal: indexed array %s unbound", x.Name)
		}
		return c.leaf(a), nil
	case *Unary:
		in, err := c.expr(x.X, depth)
		if err != nil {
			return operand{}, err
		}
		c.p.flops++
		return c.emit(vinstr{op: vNeg, a: in}, depth), nil
	case *Binary:
		l, err := c.expr(x.L, depth)
		if err != nil {
			return operand{}, err
		}
		// The right operand needs a fresh temp only while the left one
		// holds one.
		rd := depth
		if l.kind == kTemp {
			rd++
		}
		r, err := c.expr(x.R, rd)
		if err != nil {
			return operand{}, err
		}
		c.p.flops++
		return c.emit(vinstr{op: binaryOp(x.Op), a: l, b: r}, depth), nil
	case *Call:
		in, err := c.expr(x.Args[0], depth)
		if err != nil {
			return operand{}, err
		}
		op, err := elemOp(x.Fn)
		if err != nil {
			return operand{}, err
		}
		c.p.flops += 4
		return c.emit(vinstr{op: op, a: in}, depth), nil
	default:
		return operand{}, fmt.Errorf("cmf: internal: unknown expression node %T", ex)
	}
}

func (c *vcompiler) leaf(a *cmrts.Array) operand {
	c.p.leaves = append(c.p.leaves, a)
	return operand{kind: kLeaf, slot: len(c.p.leaves) - 1}
}

func (c *vcompiler) constant(v float64) operand {
	c.p.consts = append(c.p.consts, v)
	return operand{kind: kConst, slot: len(c.p.consts) - 1}
}

// assign finishes a plain assignment whose right-hand side compiled to
// root: the operation that produced root is redirected to write the
// destination, or a copy is appended when root is a leaf or scalar.
func (c *vcompiler) assign(root operand) *vprog {
	if root.kind == kTemp {
		c.p.code[len(c.p.code)-1].out = dest
	} else {
		c.p.code = append(c.p.code, vinstr{op: vCopy, out: dest, a: root})
	}
	return c.p
}

func binaryOp(op byte) vop {
	switch op {
	case '+':
		return vAdd
	case '-':
		return vSub
	case '*':
		return vMul
	default:
		return vDiv
	}
}

func elemOp(name string) (vop, error) {
	switch name {
	case "SQRT":
		return vSqrt, nil
	case "ABS":
		return vAbs, nil
	case "EXP":
		return vExp, nil
	case "LOG":
		return vLog, nil
	default:
		return 0, fmt.Errorf("cmf: internal: %s is not elementwise", name)
	}
}

// unary applies an elementwise intrinsic to a scalar.
func unary(op vop, v float64) float64 {
	switch op {
	case vSqrt:
		return math.Sqrt(v)
	case vAbs:
		return math.Abs(v)
	case vExp:
		return math.Exp(v)
	default:
		return math.Log(v)
	}
}

// kernel returns the program as a section kernel. in holds the leaves'
// sections in p.leaves order.
func (p *vprog) kernel() cmrts.SectionKernel {
	return func(lo int, out []float64, in [][]float64) {
		var stack [8][]float64
		bufs := stack[:0]
		for range p.temps + len(p.consts) {
			bufs = append(bufs, strips.Get().(*[stripWidth]float64)[:])
		}
		temps, consts := bufs[:p.temps], bufs[p.temps:]
		for i, v := range p.consts {
			c := consts[i][:min(stripWidth, len(out))]
			for k := range c {
				c[k] = v
			}
		}
		for s := 0; s < len(out); s += stripWidth {
			w := min(stripWidth, len(out)-s)
			view := func(o operand) []float64 {
				switch o.kind {
				case kLeaf:
					return in[o.slot][s : s+w]
				case kTemp:
					return temps[o.slot][:w]
				default:
					return consts[o.slot][:w]
				}
			}
			for i := range p.code {
				ins := &p.code[i]
				var dst []float64
				if ins.out == dest {
					dst = out[s : s+w]
				} else {
					dst = temps[ins.out][:w]
				}
				switch ins.op {
				case vIndex:
					for k := range dst {
						dst[k] = float64(lo + s + k + 1)
					}
				case vCopy:
					copy(dst, view(ins.a))
				case vSelect:
					selectWhere(ins.cmp, dst, view(ins.a), view(ins.b), view(ins.c))
				case vNeg, vSqrt, vAbs, vExp, vLog:
					unaryVec(ins.op, dst, view(ins.a))
				default:
					binaryVec(ins.op, dst, view(ins.a), view(ins.b))
				}
			}
		}
		for _, b := range bufs {
			strips.Put((*[stripWidth]float64)(b))
		}
	}
}

func unaryVec(op vop, dst, a []float64) {
	a = a[:len(dst)]
	switch op {
	case vNeg:
		for k, v := range a {
			dst[k] = -v
		}
	case vSqrt:
		for k, v := range a {
			dst[k] = math.Sqrt(v)
		}
	case vAbs:
		for k, v := range a {
			dst[k] = math.Abs(v)
		}
	case vExp:
		for k, v := range a {
			dst[k] = math.Exp(v)
		}
	default:
		for k, v := range a {
			dst[k] = math.Log(v)
		}
	}
}

func binaryVec(op vop, dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	switch op {
	case vAdd:
		for k := range dst {
			dst[k] = a[k] + b[k]
		}
	case vSub:
		for k := range dst {
			dst[k] = a[k] - b[k]
		}
	case vMul:
		for k := range dst {
			dst[k] = a[k] * b[k]
		}
	default:
		for k := range dst {
			dst[k] = a[k] / b[k]
		}
	}
}

// selectWhere sets dst[k] = v[k] wherever cmp(l[k], r[k]) holds.
func selectWhere(cmp func(a, b float64) bool, dst, l, r, v []float64) {
	l, r, v = l[:len(dst)], r[:len(dst)], v[:len(dst)]
	for k := range dst {
		if cmp(l[k], r[k]) {
			dst[k] = v[k]
		}
	}
}
