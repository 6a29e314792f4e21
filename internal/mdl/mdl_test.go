package mdl

import (
	"strings"
	"testing"

	"nvmap/internal/dyninst"
)

const sampleMDL = `
# Summation time, as in the paper's Figure 9.
metric summation_time {
    name "Summation Time";
    units seconds;
    level CMF;
    kind time;
    timer process;
    constraint array;
    at enter CMRTS_reduce_sum: start;
    at exit  CMRTS_reduce_sum: stop;
}

metric sends {
    name "Point-to-Point Operations";
    units operations;
    level CMRTS;
    kind count;
    at enter CMRTS_send: inc 1;
}
`

func TestParseSample(t *testing.T) {
	ms, err := Parse(sampleMDL)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("parsed %d metrics", len(ms))
	}
	st := ms[0]
	if st.ID != "summation_time" || st.Name != "Summation Time" ||
		st.Kind != Time || st.Timer != dyninst.ProcessTimer || st.Level != "CMF" {
		t.Fatalf("metric = %+v", st)
	}
	if len(st.Probes) != 2 {
		t.Fatalf("probes = %v", st.Probes)
	}
	if st.Probes[0].Point != dyninst.Entry("CMRTS_reduce_sum") || st.Probes[0].Action != ActStart {
		t.Fatalf("probe 0 = %+v", st.Probes[0])
	}
	if st.Probes[1].Point != dyninst.Exit("CMRTS_reduce_sum") || st.Probes[1].Action != ActStop {
		t.Fatalf("probe 1 = %+v", st.Probes[1])
	}
	if len(st.Constraints) != 1 || st.Constraints[0] != "array" {
		t.Fatalf("constraints = %v", st.Constraints)
	}
	sends := ms[1]
	if sends.Kind != Count || sends.Probes[0].Action != ActInc || sends.Probes[0].Amount != 1 {
		t.Fatalf("sends = %+v", sends)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no name":          "metric m { kind count; at enter f: inc 1; }",
		"no probes":        `metric m { name "M"; kind count; }`,
		"time needs stop":  `metric m { name "M"; kind time; at enter f: start; }`,
		"time with inc":    `metric m { name "M"; kind time; at enter f: start; at exit f: stop; at enter g: inc 1; }`,
		"count with start": `metric m { name "M"; kind count; at enter f: start; }`,
		"bad kind":         `metric m { name "M"; kind widget; at enter f: inc 1; }`,
		"bad timer":        `metric m { name "M"; kind time; timer cpu; at enter f: start; at exit f: stop; }`,
		"bad agg":          `metric m { name "M"; aggregate max; kind count; at enter f: inc 1; }`,
		"bad position":     `metric m { name "M"; kind count; at inside f: inc 1; }`,
		"bad action":       `metric m { name "M"; kind count; at enter f: bump 1; }`,
		"inc no amount":    `metric m { name "M"; kind count; at enter f: inc; }`,
		"unknown field":    `metric m { name "M"; colour red; at enter f: inc 1; }`,
		"unterminated str": `metric m { name "M; }`,
		"duplicate metric": `metric m { name "M"; kind count; at enter f: inc 1; } metric m { name "M"; kind count; at enter f: inc 1; }`,
		"missing brace":    `metric m  name "M"; }`,
		"bad char":         `metric m { name "M"; kind count; at enter f: inc 1; } $`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestParseErrorLine(t *testing.T) {
	_, err := Parse("metric m {\nname \"M\";\nkind widget;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	me, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if me.Line != 3 {
		t.Fatalf("line = %d, want 3: %v", me.Line, me)
	}
}

func TestLibrary(t *testing.T) {
	lib, err := NewLibrary(sampleMDL)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lib.Get("summation_time"); !ok {
		t.Fatal("summation_time missing")
	}
	if _, ok := lib.Get("ghost"); ok {
		t.Fatal("ghost metric found")
	}
	if ids := lib.IDs(); len(ids) != 2 || ids[0] != "summation_time" {
		t.Fatalf("IDs = %v", ids)
	}
	if ms := lib.AtLevel("cmf"); len(ms) != 1 || ms[0].ID != "summation_time" {
		t.Fatalf("AtLevel(cmf) = %v", ms)
	}
	if err := lib.Add(`metric extra { name "E"; kind count; at enter f: inc 2; }`); err != nil {
		t.Fatal(err)
	}
	if err := lib.Add(`metric sends { name "dup"; kind count; at enter f: inc 1; }`); err == nil {
		t.Fatal("duplicate Add accepted")
	}
}

func TestStdLibraryCompiles(t *testing.T) {
	lib := StdLibrary()
	// Figure 9 has 24 CMF-level rows and 9 CMRTS-level rows (as we count
	// the table's metric lines).
	cmf := lib.AtLevel("CMF")
	cmrts := lib.AtLevel("CMRTS")
	if len(cmf) != 22 {
		t.Errorf("CMF metrics = %d, want 22", len(cmf))
	}
	if len(cmrts) != 9 {
		t.Errorf("CMRTS metrics = %d, want 9", len(cmrts))
	}
	for _, id := range []string{
		"computations", "computation_time", "reductions", "reduction_time",
		"summations", "summation_time", "maxval_count", "maxval_time",
		"minval_count", "minval_time", "array_transformations", "transformation_time",
		"rotations", "rotation_time", "shifts", "shift_time",
		"transposes", "transpose_time", "scans", "scan_time", "sorts", "sort_time",
		"argument_processing_time", "broadcasts", "broadcast_time",
		"cleanups", "cleanup_time", "idle_time", "node_activations",
		"point_to_point_ops", "point_to_point_time",
	} {
		if _, ok := lib.Get(id); !ok {
			t.Errorf("std metric %s missing", id)
		}
	}
}

func TestInstantiateCountMetric(t *testing.T) {
	mgr := dyninst.NewManager(dyninst.CostModel{}, nil)
	lib, _ := NewLibrary(sampleMDL)
	m, _ := lib.Get("sends")
	inst, err := m.Instantiate(mgr, 4, dyninst.AllNodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 3; node++ {
		mgr.Fire(dyninst.Entry("CMRTS_send"), dyninst.Context{Node: node, Now: 10})
	}
	mgr.Fire(dyninst.Entry("CMRTS_send"), dyninst.Context{Node: 0, Now: 20})
	if got := inst.Value(100); got != 4 {
		t.Fatalf("Value = %g, want 4", got)
	}
	if got := inst.NodeValue(0, 100); got != 2 {
		t.Fatalf("NodeValue(0) = %g, want 2", got)
	}
	if got := inst.NodeValue(3, 100); got != 0 {
		t.Fatalf("NodeValue(3) = %g, want 0", got)
	}
}

func TestInstantiateTimeMetricPerNode(t *testing.T) {
	mgr := dyninst.NewManager(dyninst.CostModel{}, nil)
	lib, _ := NewLibrary(sampleMDL)
	m, _ := lib.Get("summation_time")
	inst, err := m.Instantiate(mgr, 2, dyninst.AllNodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping spans on different nodes with different clocks: node 0
	// busy [100, 400), node 1 busy [150, 250).
	mgr.Fire(dyninst.Entry("CMRTS_reduce_sum"), dyninst.Context{Node: 0, Now: 100})
	mgr.Fire(dyninst.Entry("CMRTS_reduce_sum"), dyninst.Context{Node: 1, Now: 150})
	mgr.Fire(dyninst.Exit("CMRTS_reduce_sum"), dyninst.Context{Node: 1, Now: 250})
	mgr.Fire(dyninst.Exit("CMRTS_reduce_sum"), dyninst.Context{Node: 0, Now: 400})
	wantSeconds := (300.0 + 100.0) / 1e9
	if got := inst.Value(1000); got != wantSeconds {
		t.Fatalf("Value = %g, want %g", got, wantSeconds)
	}
}

func TestInstantiatePredicateConstrains(t *testing.T) {
	mgr := dyninst.NewManager(dyninst.CostModel{}, nil)
	lib, _ := NewLibrary(sampleMDL)
	m, _ := lib.Get("sends")
	// Constrain to node 1 only.
	inst, err := m.Instantiate(mgr, 2, dyninst.AllNodes, func(ctx dyninst.Context) bool { return ctx.Node == 1 })
	if err != nil {
		t.Fatal(err)
	}
	// The same constraint as a node scope.
	scoped, err := m.Instantiate(mgr, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Fire(dyninst.Entry("CMRTS_send"), dyninst.Context{Node: 0})
	mgr.Fire(dyninst.Entry("CMRTS_send"), dyninst.Context{Node: 1})
	mgr.Fire(dyninst.Entry("CMRTS_send"), dyninst.Context{Node: -1})
	if got := inst.Value(0); got != 1 {
		t.Fatalf("constrained Value = %g, want 1", got)
	}
	if got := scoped.Value(0); got != 1 || scoped.NodeValue(1, 0) != 1 {
		t.Fatalf("scoped Value = %g, want 1 on node 1", got)
	}
}

// A probe removed behind the instance's back (Manager.RemoveAll on one
// of its points) must not strand the others.
func TestInstanceRemoveAfterRemoveAll(t *testing.T) {
	src := `metric two { name "T"; kind count; at enter f: inc 1; at enter g: inc 1; at exit h: inc 1; }`
	lib, err := NewLibrary(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := lib.Get("two")
	mgr := dyninst.NewManager(dyninst.CostModel{}, nil)
	inst, err := m.Instantiate(mgr, 2, dyninst.AllNodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := mgr.RemoveAll(dyninst.Entry("f")); n != 1 {
		t.Fatalf("RemoveAll = %d", n)
	}
	err = inst.Remove()
	if err == nil || !strings.Contains(err.Error(), "f:entry") {
		t.Fatalf("Remove = %v, want the missing f:entry probe reported", err)
	}
	if pts := mgr.ActivePoints(); len(pts) != 0 {
		t.Fatalf("probes stranded at %v", pts)
	}
	if err := inst.Remove(); err == nil || !strings.Contains(err.Error(), "already removed") {
		t.Fatalf("second Remove = %v", err)
	}
}

func TestInstanceRemove(t *testing.T) {
	mgr := dyninst.NewManager(dyninst.CostModel{}, nil)
	lib, _ := NewLibrary(sampleMDL)
	m, _ := lib.Get("sends")
	inst, _ := m.Instantiate(mgr, 2, dyninst.AllNodes, nil)
	mgr.Fire(dyninst.Entry("CMRTS_send"), dyninst.Context{Node: 0})
	if err := inst.Remove(); err != nil {
		t.Fatal(err)
	}
	mgr.Fire(dyninst.Entry("CMRTS_send"), dyninst.Context{Node: 0})
	if got := inst.Value(0); got != 1 {
		t.Fatalf("Value after removal = %g, want frozen 1", got)
	}
	if err := inst.Remove(); err == nil {
		t.Fatal("double remove accepted")
	}
	if mgr.Instrumented(dyninst.Entry("CMRTS_send")) {
		t.Fatal("point still instrumented")
	}
}

func TestInstantiateValidation(t *testing.T) {
	lib, _ := NewLibrary(sampleMDL)
	m, _ := lib.Get("sends")
	if _, err := m.Instantiate(nil, 2, dyninst.AllNodes, nil); err == nil {
		t.Fatal("nil manager accepted")
	}
	mgr := dyninst.NewManager(dyninst.CostModel{}, nil)
	if _, err := m.Instantiate(mgr, 0, dyninst.AllNodes, nil); err == nil {
		t.Fatal("zero nodes accepted")
	}
	for _, onNode := range []int{-1, 3} {
		if _, err := m.Instantiate(mgr, 2, onNode, nil); err == nil {
			t.Fatalf("node scope %d on 2 nodes accepted", onNode)
		}
	}
}

func TestAvgAggregation(t *testing.T) {
	src := `metric avg_sends { name "A"; kind count; aggregate avg; at enter f: inc 1; }`
	lib, err := NewLibrary(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := lib.Get("avg_sends")
	mgr := dyninst.NewManager(dyninst.CostModel{}, nil)
	inst, _ := m.Instantiate(mgr, 4, dyninst.AllNodes, nil)
	for n := 0; n < 4; n++ {
		mgr.Fire(dyninst.Entry("f"), dyninst.Context{Node: n})
		mgr.Fire(dyninst.Entry("f"), dyninst.Context{Node: n})
	}
	if got := inst.Value(0); got != 2 {
		t.Fatalf("avg Value = %g, want 2", got)
	}
}

func TestDecAction(t *testing.T) {
	src := `metric gauge { name "G"; kind count; at enter f: inc 1; at exit f: dec 1; }`
	lib, err := NewLibrary(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := lib.Get("gauge")
	mgr := dyninst.NewManager(dyninst.CostModel{}, nil)
	inst, _ := m.Instantiate(mgr, 1, dyninst.AllNodes, nil)
	mgr.Fire(dyninst.Entry("f"), dyninst.Context{Node: 0})
	if inst.Value(0) != 1 {
		t.Fatal("gauge not raised")
	}
	mgr.Fire(dyninst.Exit("f"), dyninst.Context{Node: 0})
	if inst.Value(0) != 0 {
		t.Fatal("gauge not lowered")
	}
}

func TestStopWithoutStartIgnored(t *testing.T) {
	lib, _ := NewLibrary(sampleMDL)
	m, _ := lib.Get("summation_time")
	mgr := dyninst.NewManager(dyninst.CostModel{}, nil)
	inst, _ := m.Instantiate(mgr, 1, dyninst.AllNodes, nil)
	// Metric requested mid-operation: the first event is an exit.
	mgr.Fire(dyninst.Exit("CMRTS_reduce_sum"), dyninst.Context{Node: 0, Now: 50})
	if got := inst.Value(100); got != 0 {
		t.Fatalf("Value = %g, want 0", got)
	}
}

func TestParenthesesedFunctionNames(t *testing.T) {
	// Block names like cmpe_corr_1_() must lex as identifiers.
	src := `metric blk { name "B"; kind count; at enter cmpe_corr_1_(): inc 1; }`
	ms, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Probes[0].Point.Function != "cmpe_corr_1_()" {
		t.Fatalf("function = %q", ms[0].Probes[0].Point.Function)
	}
}

func TestMetricStringsAndKinds(t *testing.T) {
	if Count.String() != "count" || Time.String() != "time" {
		t.Error("Kind names")
	}
	if AggSum.String() != "sum" || AggAvg.String() != "avg" {
		t.Error("Agg names")
	}
	for _, a := range []ActionKind{ActStart, ActStop, ActInc, ActDec} {
		if a.String() == "" {
			t.Error("empty action name")
		}
	}
	if !strings.Contains((&Error{Line: 3, Msg: "x"}).Error(), "line 3") {
		t.Error("Error format")
	}
}

func BenchmarkParseStdLib(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(StdLib); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstrumentedFire(b *testing.B) {
	mgr := dyninst.NewManager(dyninst.CostModel{}, nil)
	lib, _ := NewLibrary(sampleMDL)
	m, _ := lib.Get("sends")
	inst, _ := m.Instantiate(mgr, 8, dyninst.AllNodes, nil)
	ctx := dyninst.Context{Node: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mgr.Fire(dyninst.Entry("CMRTS_send"), ctx)
	}
	_ = inst
}
