package bench

import (
	"fmt"
	"io"

	"godisc/internal/baselines"
	"godisc/internal/fusion"
)

// FusionStatsRow summarizes fusion effect per model (experiment E6):
// kernel counts from the plan, and measured launches/traffic per request
// with fusion on vs off.
type FusionStatsRow struct {
	Model string
	// KernelsByPolicy[policy] = kernels in the plan.
	KernelsByPolicy map[string]int
	// GroupKinds[kind] = groups of that kind in the full plan.
	GroupKinds map[fusion.Kind]int
	// LaunchesFused/Unfused and BytesFused/Unfused are per-request
	// steady-state measurements on the standard trace.
	LaunchesFused, LaunchesUnfused float64
	BytesFused, BytesUnfused       float64
	LargestGroup                   int
}

// FusionStats computes the fusion statistics table (E6).
func FusionStats(cfg Config) ([]FusionStatsRow, error) {
	dev, err := cfg.device()
	if err != nil {
		return nil, err
	}
	suite, err := cfg.modelSet()
	if err != nil {
		return nil, err
	}
	policies := map[string]fusion.Config{
		"none":   {},
		"loop":   {EnableLoop: true},
		"input":  {EnableLoop: true, EnableInput: true},
		"stitch": {EnableLoop: true, EnableInput: true, EnableStitch: true},
		"full":   fusion.DefaultConfig(),
	}
	var rows []FusionStatsRow
	for _, m := range suite {
		row := FusionStatsRow{
			Model:           m.Name,
			KernelsByPolicy: map[string]int{},
			GroupKinds:      map[fusion.Kind]int{},
		}
		for name, fcfg := range policies {
			params := baselines.BladeDISCParams()
			params.Fusion = fcfg
			s, err := baselines.NewCompiled(m.Build(), dev, params)
			if err != nil {
				return nil, err
			}
			stats := s.Plan().Stats()
			row.KernelsByPolicy[name] = stats.Kernels
			if name == "full" {
				for k, v := range stats.ByKind {
					row.GroupKinds[k] = v
				}
				row.LargestGroup = stats.LargestGroup
			}
			tr := cfg.traceFor(m)
			if _, err := Replay(s, m, tr); err != nil {
				return nil, err
			}
			prof, err := Replay(s, m, tr)
			if err != nil {
				return nil, err
			}
			switch name {
			case "none":
				row.LaunchesUnfused = float64(prof.Launches) / float64(len(tr.Points))
				row.BytesUnfused = prof.BytesMoved / float64(len(tr.Points))
			case "full":
				row.LaunchesFused = float64(prof.Launches) / float64(len(tr.Points))
				row.BytesFused = prof.BytesMoved / float64(len(tr.Points))
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFusionStats renders the E6 table.
func PrintFusionStats(w io.Writer, rows []FusionStatsRow) {
	fmt.Fprintf(w, "Fusion statistics (E6): kernels in plan by policy; measured launches & traffic per request\n\n")
	fmt.Fprintf(w, "%-9s %6s %6s %6s %6s %6s | %9s %9s %9s | %10s %10s %7s\n",
		"model", "none", "loop", "input", "stitch", "full", "kLoop", "kInput", "kStitch",
		"launches", "(unfused)", "traffic")
	printRule(w, 12, 10)
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %6d %6d %6d %6d %6d | %9d %9d %9d | %10.1f %10.1f %6.2fx\n",
			r.Model,
			r.KernelsByPolicy["none"], r.KernelsByPolicy["loop"],
			r.KernelsByPolicy["input"], r.KernelsByPolicy["stitch"], r.KernelsByPolicy["full"],
			r.GroupKinds[fusion.KLoop], r.GroupKinds[fusion.KInput], r.GroupKinds[fusion.KStitch],
			r.LaunchesFused, r.LaunchesUnfused,
			r.BytesUnfused/maxF(r.BytesFused, 1))
	}
	fmt.Fprintf(w, "\n(traffic = unfused bytes / fused bytes; >1 means fusion eliminated global memory traffic)\n")
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
