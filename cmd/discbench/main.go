// Command discbench regenerates every table and figure of the BladeDISC
// reproduction (experiments E1..E9 in DESIGN.md). Run with -exp all for the
// full set; see EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"godisc/internal/bench"
	"godisc/internal/obs"
	"godisc/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: e1..e12, e15, e16, replay, all")
		dev      = flag.String("device", "A10", "device model: A10 or T4")
		requests = flag.Int("requests", 200, "requests per trace")
		modelArg = flag.String("models", "", "comma-separated model subset (default all)")
		seed     = flag.Uint64("seed", 7, "trace seed")
		jsonOut  = flag.String("json", "", "also write machine-readable results to this file")
		traceIn  = flag.String("trace", "", "with -exp replay: shape-trace file (lines of \"batch,seq\")")
		window   = flag.Int("window", 8, "with -exp e15: dynamic-batching window (rows coalesced per run)")
		clients  = flag.Int("clients", 32, "with -exp e15: closed-loop clients at saturation")
		traceOut = flag.String("trace-out", "",
			"execute one traced replay and write its spans as a Chrome trace_event file")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Device = *dev
	cfg.Requests = *requests
	cfg.Seed = *seed
	if *modelArg != "" {
		cfg.Models = strings.Split(*modelArg, ",")
	}

	if err := run(*exp, cfg, *jsonOut, *traceIn, *traceOut, *window, *clients); err != nil {
		fmt.Fprintln(os.Stderr, "discbench:", err)
		os.Exit(1)
	}
}

func run(exp string, cfg bench.Config, jsonOut, traceIn, traceOut string, window, clients int) error {
	w := os.Stdout
	results := map[string]any{}
	want := func(id string) bool { return exp == "all" || strings.EqualFold(exp, id) }
	any := false

	if want("e1") {
		any = true
		rows, err := bench.ModelSuite(cfg)
		if err != nil {
			return err
		}
		results["e1"] = rows
		bench.PrintModelSuite(w, rows)
		fmt.Fprintln(w)
	}
	if want("e2") || (exp == "all" && cfg.Device == "A10") {
		any = true
		res, err := bench.EndToEnd(cfg)
		if err != nil {
			return err
		}
		results["e2"] = res
		res.Print(w)
		fmt.Fprintln(w)
	}
	if want("e3") {
		any = true
		t4 := cfg
		t4.Device = "T4"
		res, err := bench.EndToEnd(t4)
		if err != nil {
			return err
		}
		results["e3"] = res
		res.Print(w)
		fmt.Fprintln(w)
	}
	if want("e4") {
		any = true
		abCfg := cfg
		if len(abCfg.Models) == 0 {
			abCfg.Models = []string{"bert", "gpt2"}
		}
		rows, err := bench.Ablation(abCfg)
		if err != nil {
			return err
		}
		results["e4"] = rows
		bench.PrintAblation(w, abCfg, rows)
		fmt.Fprintln(w)
	}
	if want("e5") {
		any = true
		pts, err := bench.ShapeDiversity(cfg, "bert", []int{1, 2, 4, 8, 16, 32, 64})
		if err != nil {
			return err
		}
		results["e5"] = pts
		bench.PrintShapeDiversity(w, cfg, "bert", pts)
		fmt.Fprintln(w)
	}
	if want("e6") {
		any = true
		rows, err := bench.FusionStats(cfg)
		if err != nil {
			return err
		}
		results["e6"] = rows
		bench.PrintFusionStats(w, rows)
		fmt.Fprintln(w)
	}
	if want("e7") {
		any = true
		cCfg := cfg
		if len(cCfg.Models) == 0 {
			cCfg.Models = []string{"bert", "gpt2"}
		}
		rows, err := bench.ConstraintAblation(cCfg)
		if err != nil {
			return err
		}
		results["e7"] = rows
		bench.PrintConstraintAblation(w, cCfg, rows)
		fmt.Fprintln(w)
	}
	if want("e8") {
		any = true
		rows, err := bench.Specialization(cfg)
		if err != nil {
			return err
		}
		results["e8"] = rows
		bench.PrintSpecialization(w, rows)
		fmt.Fprintln(w)
	}
	if want("e9") {
		any = true
		rows, err := bench.CompileCache(cfg, "bert")
		if err != nil {
			return err
		}
		results["e9"] = rows
		bench.PrintCompileCache(w, cfg, "bert", rows)
		fmt.Fprintln(w)
	}
	if want("e10") {
		any = true
		mCfg := cfg
		mCfg.Requests = 12
		rows, err := bench.MemoryFootprint(mCfg)
		if err != nil {
			return err
		}
		results["e10"] = rows
		bench.PrintMemoryFootprint(w, mCfg, rows)
		fmt.Fprintln(w)
	}
	if strings.EqualFold(exp, "replay") {
		if traceIn == "" {
			return fmt.Errorf("-exp replay needs -trace FILE")
		}
		src, err := os.ReadFile(traceIn)
		if err != nil {
			return err
		}
		tr, err := workload.ParseTrace(string(src))
		if err != nil {
			return err
		}
		model := "bert"
		if len(cfg.Models) > 0 {
			model = cfg.Models[0]
		}
		rows, err := bench.ReplayTrace(cfg, model, tr)
		if err != nil {
			return err
		}
		results["replay"] = rows
		bench.PrintReplayTrace(w, cfg, model, tr, rows)
		any = true
	}
	if want("e11") {
		any = true
		rows, err := bench.AdaptiveSpeculation(cfg, "bert")
		if err != nil {
			return err
		}
		results["e11"] = rows
		bench.PrintAdaptiveSpeculation(w, cfg, "bert", rows)
		fmt.Fprintln(w)
	}
	if want("e12") {
		any = true
		rows, err := bench.ScaleSweep(cfg, []int{16, 32, 64, 128, 256})
		if err != nil {
			return err
		}
		results["e12"] = rows
		bench.PrintScaleSweep(w, cfg, rows)
		fmt.Fprintln(w)
	}
	if want("e15") {
		any = true
		rows, err := bench.DynamicBatching(cfg, window, clients)
		if err != nil {
			return err
		}
		results["e15"] = rows
		bench.PrintDynamicBatching(w, cfg, clients, rows)
		fmt.Fprintln(w)
	}
	if want("e16") {
		any = true
		rows, err := bench.ColdStart(cfg)
		if err != nil {
			return err
		}
		results["e16"] = rows
		bench.PrintColdStart(w, cfg, rows)
		fmt.Fprintln(w)
	}
	if !any {
		return fmt.Errorf("unknown experiment %q (have e1..e12, e15, e16, replay, all)", exp)
	}
	if traceOut != "" {
		model := "bert"
		if len(cfg.Models) > 0 {
			model = cfg.Models[0]
		}
		tracer := obs.NewTracer(cfg.Requests)
		n, err := bench.TraceRun(cfg, model, tracer)
		if err != nil {
			return err
		}
		f, err := os.Create(traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "traced %d %s requests → %s\n", n, model, traceOut)
	}
	if jsonOut != "" {
		payload, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, payload, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote JSON results to %s\n", jsonOut)
	}
	return nil
}
