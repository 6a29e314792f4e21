package nvmap

import (
	"strings"
	"testing"

	"nvmap/internal/machine"
	"nvmap/internal/paradyn"
	"nvmap/internal/vtime"
)

const sessionProgram = `PROGRAM demo
REAL A(128)
REAL S
FORALL (I = 1:128) A(I) = I
A = CSHIFT(A, 1)
S = SUM(A)
PRINT *, S
END
`

func TestSessionEndToEnd(t *testing.T) {
	var out strings.Builder
	s, err := NewSession(sessionProgram, WithNodes(4), WithSourceFile("demo.fcm"), WithOutput(&out))
	if err != nil {
		t.Fatal(err)
	}
	em, err := s.Tool.EnableMetric("summations", paradyn.WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := em.Value(s.Now()); got != 1 {
		t.Fatalf("summations = %g", got)
	}
	if !strings.Contains(out.String(), "8256") {
		t.Fatalf("PRINT output = %q, want the sum 8256", out.String())
	}
	if s.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if v, ok := s.Executor.Scalar("S"); !ok || v != 8256 {
		t.Fatalf("S = %g", v)
	}
}

func TestSessionDefaults(t *testing.T) {
	s, err := NewSession(sessionProgram)
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine.Nodes() != 8 {
		t.Fatalf("default nodes = %d", s.Machine.Nodes())
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionCustomMachine(t *testing.T) {
	cfg := machine.DefaultConfig(0) // Nodes overridden by Config.Nodes
	cfg.MessageLatency = 100 * vtime.Microsecond
	s, err := NewSession(sessionProgram, WithNodes(2), WithMachine(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine.Config().MessageLatency != 100*vtime.Microsecond {
		t.Fatal("machine override ignored")
	}
	fast, err := NewSession(sessionProgram, WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := fast.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Elapsed() <= fast.Elapsed() {
		t.Fatalf("slow network (%v) should be slower than default (%v)", s.Elapsed(), fast.Elapsed())
	}
}

func TestSessionCompileErrorSurfaces(t *testing.T) {
	if _, err := NewSession("PROGRAM bad\nX = 1\nEND\n"); err == nil {
		t.Fatal("compile error swallowed")
	}
}

func TestSessionListingAndPIF(t *testing.T) {
	s, err := NewSession(sessionProgram, WithNodes(2), WithSourceFile("demo.fcm"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Listing(), "source: demo.fcm") {
		t.Fatal("listing missing source")
	}
	pifText, err := s.PIFText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NOUN", "VERB", "MAPPING", "CPU Utilization"} {
		if !strings.Contains(pifText, want) {
			t.Fatalf("PIF text missing %q", want)
		}
	}
}

func TestSessionNoPerturbation(t *testing.T) {
	s, err := NewSession(sessionProgram, WithNodes(2), WithNoPerturbation())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tool.EnableMetric("computations", paradyn.WholeProgram()); err != nil {
		t.Fatal(err)
	}
	base, err := NewSession(sessionProgram, WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Run(); err != nil {
		t.Fatal(err)
	}
	// With perturbation disconnected, the instrumented run matches the
	// uninstrumented baseline exactly.
	if s.Elapsed() != base.Elapsed() {
		t.Fatalf("NoPerturbation run (%v) differs from baseline (%v)", s.Elapsed(), base.Elapsed())
	}
}

func TestRunWithMetrics(t *testing.T) {
	vals, err := RunWithMetrics(sessionProgram, Config{Nodes: 4},
		"summations", "rotations", "point_to_point_ops")
	if err != nil {
		t.Fatal(err)
	}
	if vals["summations"] != 1 || vals["rotations"] != 1 {
		t.Fatalf("vals = %v", vals)
	}
	if vals["point_to_point_ops"] == 0 {
		t.Fatal("no sends measured")
	}
	if _, err := RunWithMetrics(sessionProgram, Config{}, "ghost"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestMetricRows(t *testing.T) {
	s, err := NewSession(sessionProgram, WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	em, err := s.Tool.EnableMetric("summations", paradyn.WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rows := s.MetricRows([]*paradyn.EnabledMetric{em})
	if len(rows) != 1 || rows[0].Metric != "Summations" || rows[0].Value != 1 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestSessionDeterminism(t *testing.T) {
	run := func() vtime.Time {
		s, err := NewSession(sessionProgram, WithNodes(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Tool.EnableMetric("computation_time", paradyn.WholeProgram()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	if run() != run() {
		t.Fatal("sessions are not deterministic")
	}
}

func TestSessionTrace(t *testing.T) {
	s, err := NewSession(sessionProgram, WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	tr := s.EnableTrace()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("trace recorded nothing")
	}
	out := tr.Render(60)
	for n := 0; n < 4; n++ {
		if !strings.Contains(out, "node"+string(rune('0'+n))) {
			t.Fatalf("timeline missing node %d:\n%s", n, out)
		}
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("timeline shows no compute:\n%s", out)
	}
	if !strings.Contains(tr.Summary(), "idle") {
		t.Fatal("summary missing idle column")
	}
}
