package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nvmap/internal/serve"
)

// The same seed must give byte-identical inputs, another seed others.
func TestSeedDeterminesInputs(t *testing.T) {
	type inputs struct {
		Distinct []program
		Parallel []program
		Served   []program
		Schedule []request
	}
	gen := func(seed int64) inputs {
		var in inputs
		for i := 0; i < 50; i++ {
			in.Distinct = append(in.Distinct, distinctProgram(seed, i))
		}
		in.Parallel = parallelPool(seed, parallelPoolLen)
		for _, kind := range serve.ScenarioKinds {
			for i := 0; i < servedPool; i++ {
				in.Served = append(in.Served, servedSource(seed, kind, i))
			}
		}
		in.Schedule = schedule(seed, 400, 2*time.Second, serve.ScenarioKinds, servedPool)
		return in
	}
	a, b, c := gen(11), gen(11), gen(12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 11 gave different inputs on two calls")
	}
	if reflect.DeepEqual(a.Distinct, c.Distinct) || reflect.DeepEqual(a.Parallel, c.Parallel) ||
		reflect.DeepEqual(a.Served, c.Served) || reflect.DeepEqual(a.Schedule, c.Schedule) {
		t.Fatal("seeds 11 and 12 gave some identical inputs")
	}
	seen := map[string]bool{}
	for _, p := range a.Distinct {
		if seen[p.Source] {
			t.Fatal("profile-distinct repeated a source")
		}
		seen[p.Source] = true
	}
	diagnoses := 0
	for _, q := range a.Schedule {
		if q.Diagnose {
			diagnoses++
		}
	}
	if diagnoses != 400/diagnoseEvery {
		t.Fatalf("schedule has %d diagnoses, want %d", diagnoses, 400/diagnoseEvery)
	}
}

// Self time is a span's duration minus its children's; the session
// root's own self time is what the coverage leaves out.
func TestSelfTime(t *testing.T) {
	tr := newTracer(true)
	root := tr.beginSession(1)
	a := tr.begin("a")
	b := tr.begin("b")
	spin(2 * time.Millisecond)
	tr.end(b)
	spin(time.Millisecond)
	tr.end(a)
	tr.add("c", 500*time.Microsecond)
	tr.end(root)
	self := tr.selfTimes()
	if got := self["b"].Self; got < 2*time.Millisecond {
		t.Errorf("b self %v, want ≥ 2ms", got)
	}
	if got := self["a"].Self; got < time.Millisecond || got > 2*time.Millisecond {
		t.Errorf("a self %v, want about 1ms (its child excluded)", got)
	}
	if got := self["c"].Self; got != 500*time.Microsecond {
		t.Errorf("c self %v, want 500µs", got)
	}
	if tr.spans[root].self() > 0 && tr.coverage() >= 1 {
		t.Error("coverage counts the root's own time")
	}
	for _, s := range tr.spans {
		if s.Session != 1 {
			t.Errorf("span %s carries session %d, want 1", s.Name, s.Session)
		}
	}
}

// pairedShift is the median over sessions of b[i] − a[i].
func pairedShift(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = b[i] - a[i]
	}
	return median(d)
}

// A delay of a few percent planted in one layer wrapper must show in
// that layer's self time and in session_p50_ms, and in no other layer's
// self time. Sessions come in pairs that run the same program in two
// sources (so both miss the compile cache), one with the delay and one
// without, back to back in alternating order, so the host's drift
// cancels within each pair.
func TestPlantedDelayShowsInItsLayerOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const layer = spMonitor
	const delay = 150 * time.Microsecond
	const n = 150
	planted := map[string]time.Duration{layer: delay}
	w := &distinct{cfg: &config{seed: 7}, seen: map[uint64]bool{}}
	ph := newPhase()
	// Per pair i: session latency untraced, each layer's self time traced.
	var latA, latB []float64
	var selfA, selfB []map[string]float64
	for mode, traced := range []bool{false, true} {
		tr := newTracer(traced)
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				plant := (i+k)%2 == 1
				tr.delay = nil
				if plant {
					tr.delay = planted
				}
				from := len(tr.spans)
				start := time.Now()
				c0 := i + (2*mode+k+1)<<20
				if failed := w.session(tr, 2*i+k, distinctVariant(7, i, c0), ph); len(failed) > 0 {
					t.Fatalf("session %d failed %v", i, failed)
				}
				lat := ms(time.Since(start))
				self := map[string]float64{}
				for _, s := range tr.spans[from:] {
					if s.Parent >= 0 {
						self[s.Name] += us(s.self())
					}
				}
				switch {
				case !traced && plant:
					latB = append(latB, lat)
				case !traced:
					latA = append(latA, lat)
				case plant:
					selfB = append(selfB, self)
				default:
					selfA = append(selfA, self)
				}
			}
		}
	}
	layerOf := func(sessions []map[string]float64, name string) []float64 {
		out := make([]float64, len(sessions))
		for i, m := range sessions {
			out[i] = m[name]
		}
		return out
	}
	dUS := us(delay)
	if got := pairedShift(layerOf(selfA, layer), layerOf(selfB, layer)); got < 0.8*dUS {
		t.Errorf("%s self time moved %.1fµs, want ≥ %.1fµs", layer, got, 0.8*dUS)
	}
	if got := 1000 * pairedShift(latA, latB); got < 0.5*dUS {
		t.Errorf("session p50 moved %.1fµs, want ≥ %.1fµs", got, 0.5*dUS)
	}
	for name := range selfA[0] {
		if name == layer {
			continue
		}
		d := pairedShift(layerOf(selfA, name), layerOf(selfB, name))
		t.Logf("%-28s moved %7.1fµs", name, d)
		if d > 0.5*dUS || d < -0.5*dUS {
			t.Errorf("layer %s self time moved %.1fµs, want within ±%.1fµs", name, d, 0.5*dUS)
		}
	}
}

// A planted wrong expected count must make the run report a failure.
func TestPlantedWrongCountFails(t *testing.T) {
	cfg := &config{workload: "profile-distinct", seed: 3, seconds: 200 * time.Millisecond, setups: 1, skewExpected: 1}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 || rep.Failed != rep.Attempted {
		t.Fatalf("skewed counts: correct=%v failed=%d attempted=%d, want every session failed", rep.Correct, rep.Failed, rep.Attempted)
	}
	if !strings.Contains(strings.Join(rep.lines, "\n"), "check FAILED: computations") {
		t.Fatalf("failure not named:\n%s", strings.Join(rep.lines, "\n"))
	}
}

// Every workload runs correct and engaged, traced and untraced, and
// reports exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		if _, ok := findWorkload(wl.Name); !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %s", wl.Name)
		}
	}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{workload: def.name, seed: 5, seconds: 600 * time.Millisecond, setups: 1,
				trace: traced, traceDir: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", def.name, err)
			}
			if !rep.Correct {
				t.Errorf("%s traced=%v not correct:\n%s", def.name, traced, strings.Join(rep.lines, "\n"))
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v reported %d metrics, BENCHMARK.json names %d", def.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s reported as %+v, want unit %s", def.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
