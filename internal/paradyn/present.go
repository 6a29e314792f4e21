package paradyn

import (
	"fmt"

	"nvmap/internal/dyninst"
	"nvmap/internal/mapping"
	"nvmap/internal/mdl"
	"nvmap/internal/nv"
	"nvmap/internal/pifgen"
	"nvmap/internal/vtime"
)

// This file implements the Section 3 presentation flow end-to-end: time
// the Base-level node code blocks with dynamic instrumentation, express
// the measurements as Base-level sentences ({block, CPU Utilization}),
// and map them upward through the static mapping table to source-level
// structure ({line, Executes}) under either assignment policy.

// blockTimer pairs a block function with its metric instance.
type blockTimer struct {
	block string
	inst  *mdl.Instance
}

// blockTimers are stored on the tool once EnableBlockTimers has run.
type blockTimers struct {
	timers []blockTimer
	start  vtime.Time
}

// EnableBlockTimers inserts a process timer around every node code block
// known from static mapping information. Call after LoadPIF and before
// the run.
func (t *Tool) EnableBlockTimers() error {
	if t.Loaded == nil {
		return fmt.Errorf("paradyn: block timers need static mapping information (LoadPIF)")
	}
	if t.blockT != nil {
		return fmt.Errorf("paradyn: block timers already enabled")
	}
	bt := &blockTimers{start: t.mach.GlobalNow()}
	for _, block := range t.Blocks() {
		m := &mdl.Metric{
			ID:    "block_time:" + block,
			Name:  "CPU time of " + block,
			Units: "seconds",
			Level: pifgen.LevelBase,
			Kind:  mdl.Time,
			Timer: dyninst.ProcessTimer,
			Probes: []mdl.Probe{
				{Point: dyninst.Entry(block), Action: mdl.ActStart},
				{Point: dyninst.Exit(block), Action: mdl.ActStop},
			},
		}
		inst, err := m.Instantiate(t.inst, t.mach.Nodes(), dyninst.AllNodes, nil)
		if err != nil {
			return err
		}
		bt.timers = append(bt.timers, blockTimer{block: block, inst: inst})
	}
	t.blockT = bt
	return nil
}

// BlockMeasurements reads the block timers as Base-level measurements:
// each block's accumulated CPU time expressed as "% CPU" of the elapsed
// node-seconds, attached to the sentence {block, CPU Utilization} — the
// exact source sentences of Figure 2's mappings.
func (t *Tool) BlockMeasurements(now vtime.Time) ([]mapping.Measurement, error) {
	if t.blockT == nil {
		return nil, fmt.Errorf("paradyn: block timers not enabled")
	}
	elapsed := now.Sub(t.blockT.start).Seconds() * float64(t.mach.Nodes())
	if elapsed <= 0 {
		return nil, fmt.Errorf("paradyn: no time elapsed since block timers were enabled")
	}
	cpuVerb, ok := t.Loaded.VerbID(pifgen.LevelCMF, pifgen.VerbCPU)
	if !ok {
		cpuVerb, ok = t.Loaded.VerbID(pifgen.LevelBase, pifgen.VerbCPU)
	}
	if !ok {
		return nil, fmt.Errorf("paradyn: PIF declares no %q verb", pifgen.VerbCPU)
	}
	var out []mapping.Measurement
	for _, bt := range t.blockT.timers {
		noun, ok := t.Loaded.NounID(pifgen.LevelBase, bt.block)
		if !ok {
			continue
		}
		out = append(out, mapping.Measurement{
			Sentence: nv.NewSentence(cpuVerb, noun),
			Cost: nv.Cost{
				Kind:  nv.CostPercent,
				Value: 100 * bt.inst.Value(now) / elapsed,
			},
		})
	}
	return out, nil
}

// PresentBlockTimes runs the whole Section 3 flow: read the block timers
// and assign their costs to source-level structure under the policy. The
// returned rows are ready for the Table display.
func (t *Tool) PresentBlockTimes(now vtime.Time, policy mapping.Policy) ([]Row, error) {
	ms, err := t.BlockMeasurements(now)
	if err != nil {
		return nil, err
	}
	assigned, unmapped, err := t.PresentUp(ms, policy)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(assigned)+len(unmapped))
	for _, a := range assigned {
		rows = append(rows, Row{
			Metric: "CPU Utilization (" + policy.String() + ")",
			Focus:  a.Target(),
			Value:  a.Cost.Value,
			Units:  "%",
		})
	}
	for _, u := range unmapped {
		rows = append(rows, Row{
			Metric: "CPU Utilization (unmapped)",
			Focus:  u.Sentence.String(),
			Value:  u.Cost.Value,
			Units:  "%",
		})
	}
	SortRows(rows)
	return rows, nil
}
