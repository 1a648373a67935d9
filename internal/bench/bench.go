// Package bench drives the paper-reproduction experiments (E1..E9 in
// DESIGN.md). Each driver replays shape traces through the strategy suite,
// aggregates simulated profiles, and prints the rows of the corresponding
// table or figure. cmd/discbench and the root bench_test.go are thin
// wrappers over these drivers.
package bench

import (
	"fmt"
	"io"
	"sort"

	"godisc/internal/baselines"
	"godisc/internal/device"
	"godisc/internal/models"
	"godisc/internal/ral"
	"godisc/internal/tensor"
	"godisc/internal/workload"
)

// BaselineOrder is the canonical column order of the paper's comparison.
var BaselineOrder = []string{
	"PyTorch", "TorchScript", "TVM", "ONNXRuntime", "XLA", "TorchInductor", "TensorRT",
}

// Config parameterizes an experiment run.
type Config struct {
	// Device is "A10" or "T4".
	Device string
	// Requests is the trace length per model.
	Requests int
	// MaxBatch bounds the batch axis of generated traces.
	MaxBatch int
	// Models restricts the suite (nil = all).
	Models []string
	// Seed drives trace generation.
	Seed uint64
}

// DefaultConfig returns full-size settings.
func DefaultConfig() Config {
	return Config{Device: "A10", Requests: 200, MaxBatch: 32, Seed: 7}
}

// QuickConfig returns reduced settings for tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Requests = 40
	return c
}

func (c Config) device() (*device.Model, error) { return device.ByName(c.Device) }

func (c Config) modelSet() ([]*models.Model, error) {
	if len(c.Models) == 0 {
		return models.Registry(), nil
	}
	var out []*models.Model
	for _, name := range c.Models {
		m, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// traceFor builds the standard Zipf serving trace for a model.
func (c Config) traceFor(m *models.Model) *workload.Trace {
	maxSeq := m.MaxSeq
	if maxSeq > 128 {
		maxSeq = 128
	}
	if maxSeq < 2 {
		// Batch-only models: diversity lives on the batch axis.
		return workload.Uniform(workload.Spec{
			Requests: c.Requests, MaxBatch: 256, MaxSeq: 1, Seed: c.Seed,
		})
	}
	return workload.Zipf(workload.Spec{
		Requests: c.Requests, MaxBatch: c.MaxBatch, MaxSeq: maxSeq, Seed: c.Seed,
	})
}

// shapesAt returns the input shapes of model m at a trace point, cached by
// point across calls through memo.
func shapesAt(m *models.Model, p workload.Point, memo map[workload.Point][][]int) [][]int {
	if s, ok := memo[p]; ok {
		return s
	}
	r := tensor.NewRNG(1)
	ins := m.GenInputs(r, p.Batch, p.Seq)
	shapes := make([][]int, len(ins))
	for i, in := range ins {
		shapes[i] = in.Shape()
	}
	memo[p] = shapes
	return shapes
}

// Replay simulates a whole trace through a strategy and returns the
// aggregate profile.
func Replay(s baselines.Strategy, m *models.Model, tr *workload.Trace) (*ral.Profiler, error) {
	total := ral.NewProfiler()
	memo := map[workload.Point][][]int{}
	for _, p := range tr.Points {
		prof, err := s.Simulate(shapesAt(m, p, memo))
		if err != nil {
			return nil, fmt.Errorf("bench: %s on %s at %+v: %w", s.Name(), m.Name, p, err)
		}
		total.Add(prof)
	}
	return total, nil
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// printRule writes a horizontal rule sized to n columns of width w.
func printRule(w io.Writer, cols, width int) {
	for i := 0; i < cols*width; i++ {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
