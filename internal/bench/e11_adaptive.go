package bench

import (
	"fmt"
	"io"

	"godisc/internal/baselines"
	"godisc/internal/models"
	"godisc/internal/tensor"
)

// AdaptiveRow is one phase of the shape-feedback experiment (E11).
type AdaptiveRow struct {
	Phase string
	// UsPerRequest on the hot shape during this phase.
	UsPerRequest float64
	// SpecHits counts speculative-variant dispatches in the phase.
	SpecHits int
}

// AdaptiveSpeculation measures the runtime shape-feedback loop (experiment
// E11): a serving trace dominated by one hot shape, measured before the
// warmup window closes (generic variants), across the respecialization
// stall, and after (speculative variants on the hot shape).
func AdaptiveSpeculation(cfg Config, model string) ([]AdaptiveRow, error) {
	dev, err := cfg.device()
	if err != nil {
		return nil, err
	}
	m, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	disc, err := baselines.NewCompiled(m.Build(), dev, baselines.BladeDISCParams())
	if err != nil {
		return nil, err
	}
	hotBatch, hotSeq := 8, 96
	r := tensor.NewRNG(cfg.Seed)
	hotShapes := func() [][]int {
		ins := m.GenInputs(r, hotBatch, hotSeq)
		shapes := make([][]int, len(ins))
		for i, in := range ins {
			shapes[i] = in.Shape()
		}
		return shapes
	}

	measure := func(phase string, n int) (AdaptiveRow, error) {
		row := AdaptiveRow{Phase: phase}
		var total float64
		for i := 0; i < n; i++ {
			prof, err := disc.Simulate(hotShapes())
			if err != nil {
				return row, err
			}
			total += prof.SimulatedNs - prof.CompileNs
			for name, c := range prof.VariantHits {
				if len(name) >= 4 && name[:4] == "spec" {
					row.SpecHits += c
				}
			}
		}
		row.UsPerRequest = total / float64(n) / 1e3
		return row, nil
	}

	var rows []AdaptiveRow
	// Phase 1: before the warmup window closes (first invocation pays the
	// initial compile; excluded via CompileNs subtraction).
	row, err := measure("warmup (generic)", baselines.SpeculationWarmup-2)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	// Phase 2: crossing the window triggers the one-shot respecialization.
	row, err = measure("respecialize", 4)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	// Phase 3: steady state on the hot shape.
	row, err = measure("steady (speculated)", 24)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}

// PrintAdaptiveSpeculation renders the E11 table.
func PrintAdaptiveSpeculation(w io.Writer, cfg Config, model string, rows []AdaptiveRow) {
	fmt.Fprintf(w, "Runtime shape feedback on %s, model %s (E11): hot-shape latency across the speculation lifecycle\n\n",
		cfg.Device, model)
	fmt.Fprintf(w, "%-22s %14s %10s\n", "phase", "µs/request", "spec hits")
	printRule(w, 6, 9)
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %14.1f %10d\n", r.Phase, r.UsPerRequest, r.SpecHits)
	}
}
