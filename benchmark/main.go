// Command benchmark (ROADMAP's discload) is the repository's benchmark: it
// builds and launches the real `discserve -serve` binary, drives it over
// loopback from this one process with at most nproc connections, checks
// every reply against an independent reference, and reports the end-to-end
// and per-layer metrics named in BENCHMARK.json. See README.md.
//
//	go run ./benchmark                                  every workload, timed + traced
//	go run ./benchmark --workload bert_zipf --seed 3 --seconds 26 --trace 0
//	go run ./benchmark -compare a.json b.json           do two result files agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of BENCHMARK.json the program reads: which metrics
// it must print, in which unit, and the bound -compare judges by.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(root string) (*contract, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Timed  *timedResult  `json:"timed,omitempty"`
	Traced *tracedResult `json:"traced,omitempty"`
}

// counts adds up every operation the workload's runs attempted.
func (r workloadResult) counts() (attempted, failed int) {
	if r.Timed != nil {
		c := r.Timed.total()
		attempted, failed = c.Sent, c.Failed
	}
	if r.Traced != nil {
		attempted += r.Traced.Requests + r.Traced.Failed
		failed += r.Traced.Failed
	}
	return attempted, failed
}

// problems lists why the workload's result must not be trusted.
func (r workloadResult) problems() []string {
	var out []string
	if r.Timed != nil {
		for _, why := range r.Timed.Failures {
			out = append(out, "failed: "+why)
		}
		for _, why := range r.Timed.Invalid {
			out = append(out, "invalid run: "+why)
		}
	}
	if r.Traced != nil && r.Traced.FirstError != "" {
		out = append(out, "failed traced operation: "+r.Traced.FirstError)
	}
	return out
}

// layer merges the per-layer metrics of both runs.
func (r workloadResult) layer() map[string]float64 {
	out := map[string]float64{}
	if r.Timed != nil {
		for k, v := range r.Timed.Layer {
			out[k] = v
		}
	}
	if r.Traced != nil {
		for k, v := range r.Traced.Layer {
			out[k] = v
		}
	}
	return out
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Command   []string                  `json:"command"`
	Host      hostInfo                  `json:"host"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all of them)")
		seed    = flag.Uint64("seed", 1, "drives request pools, arrival schedules and round order; nothing else does")
		seconds = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", -1, "0: timed run, print end-to-end metrics; 1: half-length timed run plus traced run, print per-layer metrics; default: both in full")
		compare = flag.Bool("compare", false, "compare two result files given as arguments; fail when they differ by more than a metric's bound")
		out     = flag.String("out", "", "result file of a full run (default: benchmark/out/result.json)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *compare, *out, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, compare bool, out string, args []string) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	ct, err := loadContract(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, ct, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(ct.RunSeconds)
	}
	specs := workloads
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		specs = []spec{w}
	}

	bin, buildS, err := buildServer(root)
	if err != nil {
		return err
	}
	fmt.Printf("built %s in %.1f s\n", bin, buildS)
	file := resultFile{
		Seed: seed, Seconds: seconds, Command: os.Args, Host: host(root),
		Workloads: map[string]workloadResult{},
	}
	spans := map[string][]span{}
	var problems []string
	for _, w := range specs {
		e := env{bin: bin, buildS: buildS, seed: seed, seconds: seconds, conns: runtime.NumCPU(), setups: setups}
		r, err := runWorkload(root, e, w, trace)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		file.Workloads[w.name] = r
		if r.Traced != nil {
			spans[w.name] = r.Traced.spans
		}
		for _, p := range r.problems() {
			problems = append(problems, w.name+": "+p)
		}
		printWorkload(os.Stdout, ct, w, r)
	}
	if len(spans) > 0 {
		path := filepath.Join(root, "benchmark", "out", "trace.json")
		if err := writeTrace(path, spans); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}

	if name != "" && trace >= 0 {
		// The driver's contract: one workload, one kind of metric, one JSON
		// object on the last line.
		line, err := contractLine(ct, file.Workloads[name], trace)
		if err != nil {
			return err
		}
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchmark:", p)
		}
		fmt.Println(line)
		if len(problems) > 0 {
			return fmt.Errorf("%d problems, the result above is not to be trusted", len(problems))
		}
		return nil
	}
	if out == "" {
		out = filepath.Join(root, "benchmark", "out", "result.json")
	}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("result written to %s\n", out)
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "\n"))
	}
	return nil
}

// runWorkload runs one workload: the timed run against the real binary
// (tracing off) and the traced run in process. trace 0 runs only the
// former, trace 1 both at half length with a single set-up (it reports no
// end-to-end metric), anything else both in full.
func runWorkload(root string, e env, w spec, trace int) (workloadResult, error) {
	var r workloadResult
	err := e.prepare(root, w)
	defer os.RemoveAll(e.scratch)
	if err != nil {
		return r, err
	}
	if trace == 1 {
		e.seconds /= 2
		e.setups = 1
	}
	if r.Timed, err = runTimed(e, w); err != nil {
		return r, err
	}
	if trace == 0 || len(r.Timed.Failures) > 0 {
		return r, nil
	}
	if trace != 1 {
		e.seconds /= 2
	}
	r.Traced, err = runTraced(e, w)
	return r, err
}

// contractLine renders the one-line JSON result the driver parses.
func contractLine(ct *contract, r workloadResult, trace int) (string, error) {
	defs, values := ct.EndToEnd, r.Timed.E2E
	if trace == 1 {
		defs, values = ct.PerLayer, r.layer()
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := r.counts()
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems()) == 0, attempted, failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			if !line.Correct {
				continue // a run that failed early has not measured everything
			}
			return "", fmt.Errorf("metric %s of BENCHMARK.json was not measured", d.Name)
		}
		line.Metrics[d.Name] = metric{v, d.Unit}
	}
	raw, err := json.Marshal(line)
	return string(raw), err
}

// printWorkload prints every metric of the workload by name with its unit,
// and what each phase sent.
func printWorkload(out io.Writer, ct *contract, w spec, r workloadResult) {
	fmt.Fprintf(out, "\n== %s ==\n", w.name)
	if t := r.Timed; t != nil {
		fmt.Fprintf(out, "server: %s\n", strings.Join(t.Cmdline, " "))
		fmt.Fprintf(out, "pool %s, %d distinct shapes, set-up runs %.3f s\n", t.PoolHash, t.Shapes, t.SetupRuns)
		phases := make([]string, 0, len(t.Phases))
		for p := range t.Phases {
			phases = append(phases, p)
		}
		sort.Strings(phases)
		for _, p := range phases {
			c := t.Phases[p]
			fmt.Fprintf(out, "phase %-7s sent %6d  ok %6d  failed %d  mismatched %d\n", p, c.Sent, c.OK, c.Failed, c.Mismatched)
		}
		fmt.Fprintln(out, "end to end (tracing off; windows in brackets):")
		for _, d := range ct.EndToEnd {
			if v, ok := t.E2E[d.Name]; ok {
				fmt.Fprintf(out, "  %-24s %12.4f %-6s %s\n", d.Name, v, d.Unit, fmtWindows(t.Windows[d.Name]))
			}
		}
	}
	layer := r.layer()
	if len(layer) > 0 {
		fmt.Fprintln(out, "per layer:")
		for _, d := range ct.PerLayer {
			if v, ok := layer[d.Name]; ok {
				fmt.Fprintf(out, "  %-28s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	if r.Traced != nil {
		fmt.Fprintf(out, "traced %d requests; negative self times: %v\n", r.Traced.Requests, r.Traced.Negative)
	}
	for _, p := range r.problems() {
		fmt.Fprintf(out, "PROBLEM: %s\n", p)
	}
}

func fmtWindows(ws []float64) string {
	if len(ws) == 0 {
		return ""
	}
	parts := make([]string, len(ws))
	for i, v := range ws {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
