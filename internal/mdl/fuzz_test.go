package mdl

import (
	"errors"
	"math"
	"testing"

	"nvmap/internal/dyninst"
	"nvmap/internal/vtime"
)

// FuzzParseMDL drives arbitrary source across the MDL boundary. Parse
// either compiles metrics or reports a *Error, never panics; every
// metric it compiles instantiates on every node and scoped to one node,
// fires its probes, reads a finite value and removes cleanly. The seed
// corpus is StdLib plus testdata/fuzz/FuzzParseMDL.
func FuzzParseMDL(f *testing.F) {
	f.Add(StdLib)
	f.Fuzz(func(t *testing.T, src string) {
		ms, err := Parse(src)
		if err != nil {
			var perr *Error
			if !errors.As(err, &perr) {
				t.Fatalf("Parse error %T is not *mdl.Error: %v", err, err)
			}
			return
		}
		nodes := 1 + len(src)%4
		mgr := dyninst.NewManager(dyninst.DefaultCosts(), nil)
		var now vtime.Time
		for _, m := range ms {
			for _, onNode := range []int{dyninst.AllNodes, nodes} {
				inst, err := m.Instantiate(mgr, nodes, onNode, nil)
				if err != nil {
					t.Fatalf("%s on node scope %d: %v", m.ID, onNode, err)
				}
				for round := 0; round < 2; round++ {
					for _, p := range m.Probes {
						for node := -1; node < nodes; node++ {
							now = now.Add(10)
							mgr.Fire(p.Point, dyninst.Context{Node: node, Now: now})
						}
					}
				}
				if v := inst.Value(now); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s on node scope %d: value %g", m.ID, onNode, v)
				}
				if err := inst.Remove(); err != nil {
					t.Fatalf("%s on node scope %d: %v", m.ID, onNode, err)
				}
			}
		}
		if pts := mgr.ActivePoints(); len(pts) != 0 {
			t.Fatalf("probes left at %v", pts)
		}
	})
}
