package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"godisc/internal/exec"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/opt"
	"godisc/internal/serve"
	"godisc/internal/tensor"
)

// BatchingRow is one model's line of the E15 dynamic-batching saturation
// experiment. The headline columns are *modeled*: simulated device time of
// one request served alone versus inside a full coalescing window, and the
// FCFS p99 both imply at a saturated client population — machine-independent,
// like E1–E12. The trailing columns come from a real serve.Server pair
// (batching on vs off) driven at the same offered load on this host: they
// prove the batcher actually engages and that every coalesced output is
// bit-identical to the solo run.
type BatchingRow struct {
	Model    string
	MaxBatch int
	// SoloUs is the modeled device time of one batch-1 request served on
	// its own; BatchedUs is the per-request share of one full window
	// (device time of the batch-MaxBatch run divided by MaxBatch).
	SoloUs    float64
	BatchedUs float64
	// Throughput is the modeled saturation throughput ratio SoloUs /
	// BatchedUs: with the device saturated, requests per second scale by
	// exactly the per-request device-time reduction.
	Throughput float64
	// SoloP99Us / BatchedP99Us are the modeled FCFS p99 latencies at
	// `clients` closed-loop clients. At saturation a window fills in about
	// one run time (arrivals outpace service), so the batched model
	// charges one extra run of window-fill instead of MaxLinger — the
	// batcher flushes on full and never reaches the linger bound.
	SoloP99Us    float64
	BatchedP99Us float64
	// BatchedRuns / BatchedRequests are the real server's coalescing
	// counters after the measured replay — nonzero means batching engaged.
	BatchedRuns     int64
	BatchedRequests int64
	// WallSpeedup is this host's measured wall-clock throughput ratio for
	// the same replay, batching on vs off. The interpreted kernel
	// substrate repeats the same arithmetic either way, so this captures
	// only the per-run host overhead batching removes; the modeled
	// Throughput column is the device-level claim.
	WallSpeedup float64
	// BitIdentical reports that every batched output was bit-for-bit
	// equal to the identical request served solo.
	BitIdentical bool
}

// e15Suite is the transformer/MLP pair the acceptance numbers quote.
func e15Suite(cfg Config) ([]*models.Model, error) {
	names := cfg.Models
	if len(names) == 0 {
		names = []string{"bert", "mlp"}
	}
	var out []*models.Model
	for _, n := range names {
		m, err := models.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// e15Seq picks one fixed sequence length per model so every request in the
// replay shares a symbolic signature and layout (the coalescing key).
func e15Seq(m *models.Model) int {
	if m.MaxSeq < 2 {
		return 1
	}
	if m.MaxSeq > 16 {
		return 16
	}
	return m.MaxSeq
}

// DynamicBatching runs E15: for each suite model, the modeled saturation
// throughput and p99 of dynamic batching at window `maxBatch`, plus a real
// two-server differential replay at `clients` concurrent closed-loop
// clients proving engagement and bit-identity.
func DynamicBatching(cfg Config, maxBatch, clients int) ([]BatchingRow, error) {
	if maxBatch < 2 {
		return nil, fmt.Errorf("e15: maxBatch must be >= 2, got %d", maxBatch)
	}
	if clients < maxBatch {
		clients = maxBatch
	}
	dev, err := cfg.device()
	if err != nil {
		return nil, err
	}
	suite, err := e15Suite(cfg)
	if err != nil {
		return nil, err
	}

	var rows []BatchingRow
	for _, m := range suite {
		seq := e15Seq(m)

		// Modeled half: one engine, two simulated runs. The compilation
		// cache keys on the symbolic signature, so batch-1 and
		// batch-maxBatch genuinely execute this same engine.
		g := m.Build()
		if _, err := opt.Default().Run(g); err != nil {
			return nil, err
		}
		plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
		if err != nil {
			return nil, err
		}
		exe, err := exec.Compile(g, plan, dev, exec.DefaultOptions())
		if err != nil {
			return nil, err
		}
		r := tensor.NewRNG(cfg.Seed + 1500)
		soloRes, err := exe.Run(m.GenInputs(r, 1, seq))
		if err != nil {
			return nil, err
		}
		batchRes, err := exe.Run(m.GenInputs(r, maxBatch, seq))
		if err != nil {
			return nil, err
		}
		soloNs := soloRes.Profile.SimulatedNs
		runNs := batchRes.Profile.SimulatedNs
		perReqNs := runNs / float64(maxBatch)

		// Closed FCFS at saturation: the i-th of C queued requests
		// completes after i solo services; with coalescing, after its
		// window's position among ceil(C/maxBatch) runs, plus one run of
		// window fill.
		q := int(math.Ceil(0.99 * float64(clients)))
		soloP99 := soloNs * float64(q)
		runsToQ := math.Ceil(float64(q) / float64(maxBatch))
		batchedP99 := runNs * (1 + runsToQ)

		row := BatchingRow{
			Model:        m.Name,
			MaxBatch:     maxBatch,
			SoloUs:       soloNs / 1e3,
			BatchedUs:    perReqNs / 1e3,
			Throughput:   soloNs / perReqNs,
			SoloP99Us:    soloP99 / 1e3,
			BatchedP99Us: batchedP99 / 1e3,
		}

		// Real half: identical replay against a batching and a
		// non-batching server built on the same pipeline.
		if err := e15Differential(cfg, m, seq, maxBatch, clients, &row); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// e15Differential replays `clients` concurrent batch-1 requests for a few
// rounds against batching-on and batching-off servers and fills the
// measured columns of row.
func e15Differential(cfg Config, m *models.Model, seq, maxBatch, clients int, row *BatchingRow) error {
	dev, err := cfg.device()
	if err != nil {
		return err
	}
	compile := func(g *graph.Graph) (serve.Engine, error) {
		if _, err := opt.Default().Run(g); err != nil {
			return nil, err
		}
		plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
		if err != nil {
			return nil, err
		}
		return exec.Compile(g, plan, dev, exec.DefaultOptions())
	}
	batched := serve.New(serve.Config{
		MaxConcurrent: 4, QueueDepth: 4 * clients,
		MaxBatchSize: maxBatch, MaxLinger: 50 * time.Millisecond,
	}, compile)
	defer batched.Close()
	solo := serve.New(serve.Config{
		MaxConcurrent: 4, QueueDepth: 4 * clients,
	}, compile)
	defer solo.Close()
	if err := batched.Register(m.Name, m.Build); err != nil {
		return err
	}
	if err := solo.Register(m.Name, m.Build); err != nil {
		return err
	}
	if err := batched.Warm(m.Name); err != nil {
		return err
	}
	if err := solo.Warm(m.Name); err != nil {
		return err
	}

	const rounds = 3
	total := rounds * clients
	inputs := make([][]*tensor.Tensor, total)
	r := tensor.NewRNG(cfg.Seed + 1501)
	for i := range inputs {
		inputs[i] = m.GenInputs(r, 1, seq)
	}

	replay := func(srv *serve.Server) ([][]*tensor.Tensor, time.Duration, error) {
		outs := make([][]*tensor.Tensor, total)
		errs := make([]error, total)
		start := time.Now()
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				i := round*clients + c
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := srv.Infer(context.Background(),
						&serve.Request{Model: m.Name, Inputs: inputs[i]})
					if err != nil {
						errs[i] = err
						return
					}
					outs[i] = resp.Outputs
				}(i)
			}
			wg.Wait()
		}
		wall := time.Since(start)
		for i, err := range errs {
			if err != nil {
				return nil, 0, fmt.Errorf("e15 %s request %d: %w", m.Name, i, err)
			}
		}
		return outs, wall, nil
	}

	batchedOuts, batchedWall, err := replay(batched)
	if err != nil {
		return err
	}
	soloOuts, soloWall, err := replay(solo)
	if err != nil {
		return err
	}

	row.BitIdentical = true
	for i := range inputs {
		if len(batchedOuts[i]) != len(soloOuts[i]) {
			row.BitIdentical = false
			break
		}
		for oi := range batchedOuts[i] {
			if !tensorBitsEqual(batchedOuts[i][oi], soloOuts[i][oi]) {
				row.BitIdentical = false
			}
		}
	}
	st := batched.Stats()
	row.BatchedRuns = st.BatchedRuns
	row.BatchedRequests = st.BatchedRequests
	if batchedWall > 0 {
		row.WallSpeedup = float64(soloWall) / float64(batchedWall)
	}
	return nil
}

// tensorBitsEqual compares two tensors for exact equality: float payloads
// by bit pattern (so ±0 and NaN patterns count), others by value.
func tensorBitsEqual(a, b *tensor.Tensor) bool {
	if a.DType() != b.DType() || !tensor.ShapeEq(a.Shape(), b.Shape()) {
		return false
	}
	switch a.DType() {
	case tensor.F32:
		return bitsEqual(a.F32(), b.F32())
	case tensor.I32:
		av, bv := a.I32(), b.I32()
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	case tensor.Bool:
		av, bv := a.Bools(), b.Bools()
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// PrintDynamicBatching renders the E15 table.
func PrintDynamicBatching(w io.Writer, cfg Config, clients int, rows []BatchingRow) {
	fmt.Fprintf(w, "Dynamic request batching at saturation on %s (E15): %d closed-loop\n", cfg.Device, clients)
	fmt.Fprintf(w, "clients, coalescing window vs solo serving of the same engine\n\n")
	fmt.Fprintf(w, "%-8s %6s %10s %12s %11s %10s %12s %8s %10s %10s\n",
		"model", "window", "solo µs", "batched µs", "throughput", "p99 µs", "p99 µs (b)", "runs", "wall", "identical")
	printRule(w, 8, 10)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %6d %10.1f %12.1f %10.2fx %10.0f %12.0f %8d %9.2fx %10v\n",
			r.Model, r.MaxBatch, r.SoloUs, r.BatchedUs, r.Throughput,
			r.SoloP99Us, r.BatchedP99Us, r.BatchedRuns, r.WallSpeedup, r.BitIdentical)
	}
	fmt.Fprintf(w, "\n(solo/batched µs and both p99 columns are modeled device time — the\n")
	fmt.Fprintf(w, " batched column is one full window's run divided by its members; runs\n")
	fmt.Fprintf(w, " and wall come from a real server pair at the same offered load, and\n")
	fmt.Fprintf(w, " every batched output is bit-identical to its solo run.)\n")
}

// bitsEqual compares two f32 buffers by bit pattern.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
