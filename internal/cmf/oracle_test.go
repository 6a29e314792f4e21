package cmf

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nvmap/internal/cmrts"
	"nvmap/internal/dyninst"
	"nvmap/internal/machine"
)

// The differential oracle for the strip-mined evaluator. The reference
// below is the per-element closure evaluator the executor used before:
// each expression compiles to a closure tree evaluated once per element,
// over plain flat slices. A program run through the executor on a
// simulated machine must leave every array and scalar bit-identical to
// the reference interpreter's.

// refInterp interprets a compiled program over flat slices.
type refInterp struct {
	cp      *Compiled
	arrays  map[string][]float64
	scalars map[string]float64
	loops   map[string]float64
}

func newRefInterp(cp *Compiled) *refInterp {
	return &refInterp{
		cp:      cp,
		arrays:  make(map[string][]float64),
		scalars: make(map[string]float64),
		loops:   make(map[string]float64),
	}
}

func (r *refInterp) run(body []Stmt) error {
	for _, s := range body {
		var err error
		switch st := s.(type) {
		case *Decl:
			if len(st.Dims) == 0 {
				r.scalars[st.Name] = 0
				continue
			}
			size := 1
			for _, d := range st.Dims {
				size *= d
			}
			r.arrays[st.Name] = make([]float64, size)
		case *DoLoop:
			for v := st.Lo; v <= st.Hi; v++ {
				r.loops[st.Var] = float64(v)
				if err := r.run(st.Body); err != nil {
					return err
				}
			}
			delete(r.loops, st.Var)
		case *Forall:
			err = r.forall(st)
		case *Where:
			err = r.where(st)
		case *Assign:
			switch info := r.cp.Infos[st.Ln]; info.Kind {
			case KindSerial:
				r.scalars[st.LHS], err = r.evalScalar(st.RHS)
			case KindCompute:
				err = r.compute(st)
			case KindTransform:
				err = r.transform(st, info)
			default:
				err = fmt.Errorf("reference: %s statements are not modelled", info.Kind)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *refInterp) compute(st *Assign) error {
	dst := r.arrays[st.LHS]
	var leaves []string
	eval, _, err := r.compileElem(st.RHS, &leaves, "")
	if err != nil {
		return err
	}
	if len(leaves) == 0 {
		v := eval(nil, 0)
		for i := range dst {
			dst[i] = v
		}
		return nil
	}
	vals := make([]float64, len(leaves))
	for i := range dst {
		for k, name := range leaves {
			vals[k] = r.arrays[name][i]
		}
		dst[i] = eval(vals, 0)
	}
	return nil
}

func (r *refInterp) where(st *Where) error {
	dst := r.arrays[st.LHS]
	var leaves []string
	condL, _, err := r.compileElem(st.CondL, &leaves, "")
	if err != nil {
		return err
	}
	condR, _, err := r.compileElem(st.CondR, &leaves, "")
	if err != nil {
		return err
	}
	rhs, _, err := r.compileElem(st.RHS, &leaves, "")
	if err != nil {
		return err
	}
	oldSlot := len(leaves)
	leaves = append(leaves, st.LHS)
	cmp, err := refComparator(st.CondOp)
	if err != nil {
		return err
	}
	vals := make([]float64, len(leaves))
	for i := range dst {
		for k, name := range leaves {
			vals[k] = r.arrays[name][i]
		}
		if cmp(condL(vals, 0), condR(vals, 0)) {
			dst[i] = rhs(vals, 0)
		} else {
			dst[i] = vals[oldSlot]
		}
	}
	return nil
}

func (r *refInterp) forall(st *Forall) error {
	dst := r.arrays[st.LHS]
	var leaves []string
	eval, _, err := r.compileElem(st.RHS, &leaves, st.Var)
	if err != nil {
		return err
	}
	vals := make([]float64, len(leaves))
	for flat := range dst {
		for k, name := range leaves {
			vals[k] = r.arrays[name][flat]
		}
		dst[flat] = eval(vals, float64(flat+1))
	}
	return nil
}

// transform models the CSHIFT and EOSHIFT transforms the generator
// emits.
func (r *refInterp) transform(st *Assign, info *StmtInfo) error {
	call := st.RHS.(*Call)
	src := r.arrays[call.Args[0].(*Ref).Name]
	dst := r.arrays[st.LHS]
	old := append([]float64(nil), src...)
	var k int
	switch a := call.Args[1].(type) {
	case *Num:
		k = int(a.Val)
	case *Unary:
		k = -int(a.X.(*Num).Val)
	}
	size := len(old)
	switch info.Intrinsic {
	case "CSHIFT":
		for j := range dst {
			dst[j] = old[((j+k)%size+size)%size]
		}
	case "EOSHIFT":
		fill := 0.0
		if len(call.Args) == 3 {
			fill = call.Args[2].(*Num).Val
		}
		for j := range dst {
			if i := j + k; i >= 0 && i < size {
				dst[j] = old[i]
			} else {
				dst[j] = fill
			}
		}
	default:
		return fmt.Errorf("reference: transform %s is not modelled", info.Intrinsic)
	}
	return nil
}

// compileElem is the per-element reference evaluator: array leaves are
// appended to *leaves in evaluation order, the closure receives their
// element values in vals and the 1-based FORALL index in idx.
func (r *refInterp) compileElem(ex Expr, leaves *[]string, forallVar string) (func(vals []float64, idx float64) float64, int, error) {
	switch x := ex.(type) {
	case *Num:
		v := x.Val
		return func([]float64, float64) float64 { return v }, 0, nil
	case *Ref:
		if _, isArr := r.arrays[x.Name]; isArr {
			slot := len(*leaves)
			*leaves = append(*leaves, x.Name)
			return func(vals []float64, _ float64) float64 { return vals[slot] }, 0, nil
		}
		if forallVar != "" && x.Name == forallVar {
			return func(_ []float64, idx float64) float64 { return idx }, 0, nil
		}
		v, err := r.evalScalar(x)
		if err != nil {
			return nil, 0, err
		}
		return func([]float64, float64) float64 { return v }, 0, nil
	case *Index:
		slot := len(*leaves)
		*leaves = append(*leaves, x.Name)
		return func(vals []float64, _ float64) float64 { return vals[slot] }, 0, nil
	case *Unary:
		inner, fl, err := r.compileElem(x.X, leaves, forallVar)
		if err != nil {
			return nil, 0, err
		}
		return func(vals []float64, idx float64) float64 { return -inner(vals, idx) }, fl + 1, nil
	case *Binary:
		l, fl1, err := r.compileElem(x.L, leaves, forallVar)
		if err != nil {
			return nil, 0, err
		}
		rt, fl2, err := r.compileElem(x.R, leaves, forallVar)
		if err != nil {
			return nil, 0, err
		}
		op := x.Op
		return func(vals []float64, idx float64) float64 {
			a, b := l(vals, idx), rt(vals, idx)
			switch op {
			case '+':
				return a + b
			case '-':
				return a - b
			case '*':
				return a * b
			default:
				return a / b
			}
		}, fl1 + fl2 + 1, nil
	case *Call:
		inner, fl, err := r.compileElem(x.Args[0], leaves, forallVar)
		if err != nil {
			return nil, 0, err
		}
		fn, err := refElemFn(x.Fn)
		if err != nil {
			return nil, 0, err
		}
		return func(vals []float64, idx float64) float64 { return fn(inner(vals, idx)) }, fl + 4, nil
	default:
		return nil, 0, fmt.Errorf("reference: unknown expression node %T", ex)
	}
}

func (r *refInterp) evalScalar(ex Expr) (float64, error) {
	switch x := ex.(type) {
	case *Num:
		return x.Val, nil
	case *Ref:
		if v, ok := r.scalars[x.Name]; ok {
			return v, nil
		}
		if v, ok := r.loops[x.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("reference: unbound scalar %s", x.Name)
	case *Unary:
		v, err := r.evalScalar(x.X)
		return -v, err
	case *Binary:
		l, err := r.evalScalar(x.L)
		if err != nil {
			return 0, err
		}
		rv, err := r.evalScalar(x.R)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case '+':
			return l + rv, nil
		case '-':
			return l - rv, nil
		case '*':
			return l * rv, nil
		default:
			return l / rv, nil
		}
	case *Call:
		v, err := r.evalScalar(x.Args[0])
		if err != nil {
			return 0, err
		}
		fn, err := refElemFn(x.Fn)
		if err != nil {
			return 0, err
		}
		return fn(v), nil
	default:
		return 0, fmt.Errorf("reference: unknown scalar expression %T", ex)
	}
}

func refElemFn(name string) (func(float64) float64, error) {
	switch name {
	case "SQRT":
		return math.Sqrt, nil
	case "ABS":
		return math.Abs, nil
	case "EXP":
		return math.Exp, nil
	case "LOG":
		return math.Log, nil
	default:
		return nil, fmt.Errorf("reference: %s is not elementwise", name)
	}
}

func refComparator(op string) (func(a, b float64) bool, error) {
	switch op {
	case ">":
		return func(a, b float64) bool { return a > b }, nil
	case "<":
		return func(a, b float64) bool { return a < b }, nil
	case ">=":
		return func(a, b float64) bool { return a >= b }, nil
	case "<=":
		return func(a, b float64) bool { return a <= b }, nil
	case "==":
		return func(a, b float64) bool { return a == b }, nil
	case "/=":
		return func(a, b float64) bool { return a != b }, nil
	default:
		return nil, fmt.Errorf("reference: unknown comparison %q", op)
	}
}

// sameFloat compares bit patterns, except that any NaN matches any NaN.
// Go leaves the payload and sign of a NaN result unspecified, and amd64
// propagates the first operand's: the reference closure evaluates a + b
// as b += a, so NaN + NaN keeps b's payload there and a's in a loop.
// Nothing downstream reads NaN payloads.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// checkOracle runs src through the executor on nodes nodes and workers
// workers, and through the reference interpreter, and fails on the
// first array element or scalar whose bits differ.
func checkOracle(t *testing.T, src string, nodes, workers int) {
	t.Helper()
	cp, err := CompileSource(src, Options{Fuse: true})
	if err != nil {
		t.Fatalf("generated program does not compile: %v\n%s", err, src)
	}
	cfg := machine.DefaultConfig(nodes)
	cfg.Workers = workers
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cmrts.New(m, dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode), cmrts.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cp, rt, nil)
	if err := ex.Run(); err != nil {
		t.Fatalf("executor: %v\n%s", err, src)
	}
	ref := newRefInterp(cp)
	if err := ref.run(cp.Prog.Body); err != nil {
		t.Fatalf("reference: %v\n%s", err, src)
	}
	for _, name := range cp.ArrayOrder {
		a, _ := ex.ArrayOf(name)
		want := ref.arrays[name]
		for i, w := range want {
			if got := a.At(i); !sameFloat(got, w) {
				t.Fatalf("nodes %d workers %d: %s[%d] = %v (%#x), reference %v (%#x)\n%s",
					nodes, workers, name, i, got, math.Float64bits(got), w, math.Float64bits(w), src)
			}
		}
	}
	for name, w := range ref.scalars {
		if got, _ := ex.Scalar(name); !sameFloat(got, w) {
			t.Fatalf("nodes %d workers %d: scalar %s = %v, reference %v\n%s", nodes, workers, name, got, w, src)
		}
	}
}

// chooser draws the generator's choices from a random source or, for
// fuzzing, from a byte string (choices are 0 once it runs out).
type chooser struct {
	r *rand.Rand
	b []byte
}

func (c *chooser) intn(n int) int {
	if c.r != nil {
		return c.r.Intn(n)
	}
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

func (c *chooser) pick(xs ...string) string { return xs[c.intn(len(xs))] }

// Generated programs declare arrays A, B, C and T of one size and
// scalars S (finite), Z (zero), P (+Inf), Q (-Inf) and R (NaN), so
// operands reach division by zero, infinities, NaN, and SQRT/LOG of
// negative numbers. Array leaves are the most likely and the special
// scalars the least, so most results stay finite and are compared bit
// for bit. Some statements run inside DO K = 1, 2, where the loop
// variable K is a scalar operand read when the statement runs.
var (
	genArrays  = []string{"A", "B", "C", "T"}
	genScalars = []string{"S", "Z", "P", "Q", "R"}
	genConsts  = []string{"0.0", "1.0", "2.5", "(-1.5)", "0.001", "3", "1E300"}
	genCmps    = []string{">", "<", ">=", "<=", "==", "/="}
)

// progGen writes random programs from a chooser's decisions.
type progGen struct {
	*chooser
	size   int
	inLoop bool
}

// expr writes a random elementwise expression; in a FORALL body arrays
// are indexed by I and I itself is a leaf.
func (g *progGen) expr(depth int, forall bool) string {
	if depth == 0 || g.intn(4) == 0 {
		switch g.intn(8) {
		case 0, 1, 2, 3, 4:
			if forall {
				if g.intn(3) == 0 {
					return "I"
				}
				return g.pick(genArrays...) + "(I)"
			}
			return g.pick(genArrays...)
		case 5:
			if g.inLoop && g.intn(2) == 0 {
				return "K"
			}
			if g.intn(2) == 0 {
				return "S"
			}
			return g.pick(genScalars...)
		default:
			return g.pick(genConsts...)
		}
	}
	switch g.intn(5) {
	case 0:
		return "(-" + g.expr(depth-1, forall) + ")"
	case 1:
		return g.pick("SQRT", "ABS", "EXP", "LOG") + "(" + g.expr(depth-1, forall) + ")"
	default:
		return "(" + g.expr(depth-1, forall) + " " + g.pick("+", "-", "*", "/") + " " + g.expr(depth-1, forall) + ")"
	}
}

// stmt writes one random parallel statement.
func (g *progGen) stmt(b *strings.Builder) {
	dst := g.pick(genArrays...)
	switch g.intn(6) {
	case 0, 1:
		fmt.Fprintf(b, "%s = %s\n", dst, g.expr(4, false))
	case 2:
		fmt.Fprintf(b, "WHERE (%s %s %s) %s = %s\n",
			g.expr(2, false), g.pick(genCmps...), g.expr(2, false), dst, g.expr(3, false))
	case 3:
		fmt.Fprintf(b, "FORALL (I = 1:%d) %s(I) = %s\n", g.size, dst, g.expr(4, true))
	case 4:
		fmt.Fprintf(b, "%s = CSHIFT(%s, %d)\n", dst, g.pick(genArrays...), g.intn(7)-3)
	default:
		fmt.Fprintf(b, "%s = EOSHIFT(%s, %d, 2.0)\n", dst, g.pick(genArrays...), g.intn(7)-3)
	}
}

// genProgram writes a program of stmts random parallel statements over
// arrays of size elements.
func genProgram(c *chooser, size, stmts int) string {
	g := &progGen{chooser: c, size: size}
	var b strings.Builder
	b.WriteString("PROGRAM oracle\n")
	for _, a := range genArrays {
		fmt.Fprintf(&b, "REAL %s(%d)\n", a, size)
	}
	for _, s := range genScalars {
		fmt.Fprintf(&b, "REAL %s\n", s)
	}
	b.WriteString("S = 1.75\nZ = 0.0\nP = 1.0 / Z\nQ = -P\nR = Z / Z\n")
	fmt.Fprintf(&b, "FORALL (I = 1:%d) A(I) = I * 0.37 - 40\n", size)
	fmt.Fprintf(&b, "FORALL (I = 1:%d) B(I) = 7 - I / 3.0\n", size)
	fmt.Fprintf(&b, "FORALL (I = 1:%d) C(I) = I / (I - 9)\n", size)
	for range stmts {
		if g.intn(5) > 0 {
			g.stmt(&b)
			continue
		}
		b.WriteString("DO K = 1, 2\n")
		g.inLoop = true
		g.stmt(&b)
		g.stmt(&b)
		g.inLoop = false
		b.WriteString("END DO\n")
	}
	b.WriteString("END\n")
	return b.String()
}

var (
	oracleSizes   = []int{1, 5, 255, 256, 257, 4095}
	oracleNodes   = []int{1, 3, 8, 32}
	oracleWorkers = []int{1, 2}
)

func TestStripEvaluatorMatchesReference(t *testing.T) {
	seed := int64(1)
	for _, size := range oracleSizes {
		for _, nodes := range oracleNodes {
			for _, workers := range oracleWorkers {
				for range 3 {
					c := &chooser{r: rand.New(rand.NewSource(seed))}
					seed++
					checkOracle(t, genProgram(c, size, 8), nodes, workers)
				}
			}
		}
	}
}

// TestStripEvaluatorEdgeValues covers every comparator and the IEEE
// special values explicitly.
func TestStripEvaluatorEdgeValues(t *testing.T) {
	for _, size := range oracleSizes {
		var b strings.Builder
		fmt.Fprintf(&b, "PROGRAM edge\nREAL A(%d)\nREAL B(%d)\nREAL C(%d)\nREAL D(%d)\nREAL E(%d)\n", size, size, size, size, size)
		b.WriteString("REAL Z\nREAL P\nREAL R\nZ = 0.0\nP = 1.0 / Z\nR = Z / Z\n")
		fmt.Fprintf(&b, "FORALL (I = 1:%d) A(I) = I - 3\n", size)
		// A < D below index 3 and A == D from there: every comparator
		// sees both outcomes and ties.
		b.WriteString("D = ABS(A)\n")
		for k, cmp := range genCmps {
			fmt.Fprintf(&b, "WHERE (A %s D) E = E + %d\n", cmp, 1<<k)
			fmt.Fprintf(&b, "WHERE (D %s A) E = E - %d\n", cmp, 1<<(k+6))
		}
		b.WriteString("B = A / 0.0\nC = SQRT(-A) + LOG(-A)\nA = A * P - R\nB = -B / (B - B)\n")
		for _, cmp := range genCmps {
			fmt.Fprintf(&b, "WHERE (C %s B) A = LOG(A) - C\n", cmp)
			fmt.Fprintf(&b, "WHERE (B %s 0.0) C = C * 2\n", cmp)
		}
		fmt.Fprintf(&b, "FORALL (I = 1:%d) C(I) = SQRT(I - 100) / (I - I) + B(I)\n", size)
		b.WriteString("END\n")
		for _, nodes := range oracleNodes {
			for _, workers := range oracleWorkers {
				checkOracle(t, b.String(), nodes, workers)
			}
		}
	}
}

// TestStripEvaluatorAliasing covers statements whose destination is
// also an operand. A transform cannot nest inside an elementwise
// expression, so A = A + CSHIFT(A,1) is written as a shift into T
// followed by the sum, alongside in-place shifts.
func TestStripEvaluatorAliasing(t *testing.T) {
	for _, size := range oracleSizes {
		var b strings.Builder
		fmt.Fprintf(&b, "PROGRAM alias\nREAL A(%d)\nREAL B(%d)\nREAL T(%d)\n", size, size, size)
		fmt.Fprintf(&b, "FORALL (I = 1:%d) A(I) = I * 1.5\n", size)
		fmt.Fprintf(&b, "FORALL (I = 1:%d) B(I) = 3 - I\n", size)
		b.WriteString("A = A * B - A\nT = CSHIFT(A, 1)\nA = A + T\nA = CSHIFT(A, -2)\nA = (A / B) * (A - B) + A\n")
		b.WriteString("B = EOSHIFT(B, 2, 1.0)\nWHERE (A > B) A = A - A * B\n")
		fmt.Fprintf(&b, "FORALL (I = 1:%d) A(I) = A(I) * I - A(I)\n", size)
		b.WriteString("END\n")
		for _, nodes := range oracleNodes {
			for _, workers := range oracleWorkers {
				checkOracle(t, b.String(), nodes, workers)
			}
		}
	}
}
