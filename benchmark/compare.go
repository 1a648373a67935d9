package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload × end-to-end metric, both values, how
// much worse (+) or better (−) b is than a as a share of a, and the metric's
// bound; it fails when any pair differs by more than its bound either way —
// two runs of one commit that disagree that much make the bound meaningless.
func compareFiles(w io.Writer, ct *contract, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	exceeded := 0
	for _, wl := range ct.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra.Timed == nil || rb.Timed == nil {
			return fmt.Errorf("workload %s has no timed run in both files", wl.Name)
		}
		for _, d := range ct.EndToEnd {
			va, okA := ra.Timed.E2E[d.Name]
			vb, okB := rb.Timed.E2E[d.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s missing", wl.Name, d.Name)
			}
			worse := worseBy(d, va, vb)
			mark := ""
			if math.Abs(worse) > d.Bound {
				mark = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Fprintf(w, "%-14s %-24s %14.4f %14.4f %+8.1f%% %6.1f%%%s\n",
				wl.Name, d.Name, va, vb, 100*worse+0, 100*d.Bound, mark) // +0: no "-0.0%"
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metrics differ by more than their bound", exceeded)
	}
	return nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative: b is better).
func worseBy(d metricDef, a, b float64) float64 {
	rel := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		return -rel
	}
	return rel
}
