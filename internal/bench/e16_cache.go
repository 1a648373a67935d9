package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"godisc/internal/device"
	"godisc/internal/enginecache"
	"godisc/internal/exec"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/opt"
	"godisc/internal/serve"
	"godisc/internal/tensor"
)

// ColdStartRow is one model's line of the E16 cold-start experiment:
// wall-clock time to the first response under two serving states. Cold
// pays the full compile on the request path; warm restarts onto a
// populated engine cache and deserializes instead of compiling. Both are
// measured on this host — the experiment is about the serving state
// machine, not the device model.
type ColdStartRow struct {
	Model string
	// ColdSyncMs is time-to-first-response on an empty cache with
	// synchronous compilation: the request waits out the whole compile.
	ColdSyncMs float64
	// WarmSyncMs is time-to-first-response of a fresh server process on
	// the cache the cold run populated: decode from disk, zero compiles.
	WarmSyncMs float64
	// WarmCompiles counts compiler invocations during the warm restart —
	// the headline claim is that it is zero.
	WarmCompiles int64
	// BitIdentical reports the warm-restart output was bit-for-bit equal
	// to the cold run's.
	BitIdentical bool
}

// e16Compile is the full pipeline as a CompileFunc with an invocation
// counter.
func e16Compile(dev *device.Model, calls *int64) serve.CompileFunc {
	return func(g *graph.Graph) (serve.Engine, error) {
		atomic.AddInt64(calls, 1)
		if _, err := opt.Default().Run(g); err != nil {
			return nil, err
		}
		plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
		if err != nil {
			return nil, err
		}
		return exec.Compile(g, plan, dev, exec.DefaultOptions())
	}
}

// e16Codecs is the engine image codec pair the public layer installs.
func e16Codecs(dev *device.Model) (func([]byte) (serve.Engine, error), func(serve.Engine) ([]byte, error)) {
	dec := func(payload []byte) (serve.Engine, error) {
		return exec.DecodeImage(payload, dev, exec.DefaultOptions())
	}
	enc := func(e serve.Engine) ([]byte, error) {
		exe, ok := e.(*exec.Executable)
		if !ok {
			return nil, fmt.Errorf("e16: engine %T is not serializable", e)
		}
		return exe.EncodeImage()
	}
	return dec, enc
}

// ColdStart runs E16: per suite model, time-to-first-response cold vs
// warm (persistent cache), plus the zero-compile and bit-identity proofs
// for the warm restart.
func ColdStart(cfg Config) ([]ColdStartRow, error) {
	dev, err := cfg.device()
	if err != nil {
		return nil, err
	}
	suite, err := e15Suite(cfg)
	if err != nil {
		return nil, err
	}
	dec, enc := e16Codecs(dev)

	var rows []ColdStartRow
	for _, m := range suite {
		seq := e15Seq(m)
		r := tensor.NewRNG(cfg.Seed + 1600)
		inputs := m.GenInputs(r, 4, seq)
		row := ColdStartRow{Model: m.Name}

		dir, err := os.MkdirTemp("", "godisc-e16-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		// Cold synchronous: empty cache, the first request pays the compile.
		ecCold, err := enginecache.Open(dir, "e16")
		if err != nil {
			return nil, err
		}
		var coldCompiles int64
		cold := serve.New(serve.Config{
			MaxConcurrent: 2, EngineCache: ecCold, DecodeEngine: dec, EncodeEngine: enc,
		}, e16Compile(dev, &coldCompiles))
		if err := cold.Register(m.Name, m.Build); err != nil {
			return nil, err
		}
		start := time.Now()
		coldResp, err := cold.Infer(context.Background(), &serve.Request{Model: m.Name, Inputs: inputs})
		if err != nil {
			return nil, fmt.Errorf("e16 %s cold: %w", m.Name, err)
		}
		row.ColdSyncMs = float64(time.Since(start)) / 1e6
		cold.Close()

		// Warm synchronous: a fresh server on the populated cache must
		// deserialize, never compile, and reproduce the outputs exactly.
		ecWarm, err := enginecache.Open(dir, "e16")
		if err != nil {
			return nil, err
		}
		var warmCompiles int64
		warm := serve.New(serve.Config{
			MaxConcurrent: 2, EngineCache: ecWarm, DecodeEngine: dec, EncodeEngine: enc,
		}, e16Compile(dev, &warmCompiles))
		if err := warm.Register(m.Name, m.Build); err != nil {
			return nil, err
		}
		start = time.Now()
		warmResp, err := warm.Infer(context.Background(), &serve.Request{Model: m.Name, Inputs: inputs})
		if err != nil {
			return nil, fmt.Errorf("e16 %s warm: %w", m.Name, err)
		}
		row.WarmSyncMs = float64(time.Since(start)) / 1e6
		row.WarmCompiles = atomic.LoadInt64(&warmCompiles)
		row.BitIdentical = len(coldResp.Outputs) == len(warmResp.Outputs)
		for i := range coldResp.Outputs {
			if !row.BitIdentical {
				break
			}
			row.BitIdentical = tensorBitsEqual(coldResp.Outputs[i], warmResp.Outputs[i])
		}
		warm.Close()

		rows = append(rows, row)
	}
	return rows, nil
}

// PrintColdStart renders the E16 table.
func PrintColdStart(w io.Writer, cfg Config, rows []ColdStartRow) {
	fmt.Fprintf(w, "Cold-start latency with the persistent engine cache (E16) on %s:\n", cfg.Device)
	fmt.Fprintf(w, "time to first response, cold vs warm restart\n\n")
	fmt.Fprintf(w, "%-8s %12s %12s %9s %10s\n",
		"model", "cold ms", "warm ms", "compiles", "identical")
	printRule(w, 5, 11)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12.1f %12.1f %9d %10v\n",
			r.Model, r.ColdSyncMs, r.WarmSyncMs, r.WarmCompiles, r.BitIdentical)
	}
	fmt.Fprintf(w, "\n(warm restarts deserialize engines from disk — the compiles column is\n")
	fmt.Fprintf(w, " the warm server's compiler invocations and must be 0.)\n")
}
