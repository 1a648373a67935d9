package baselines

import (
	"fmt"
	"math/bits"
	"sync"

	"godisc/internal/codegen"
	"godisc/internal/device"
	"godisc/internal/exec"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/obs"
	"godisc/internal/opt"
	"godisc/internal/ral"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// CacheKeying selects how a compiled strategy keys its compilation cache —
// the mechanism that separates dynamic-shape compilation from static
// recompilation and guard-based recompilation.
type CacheKeying uint8

const (
	// KeySymbolic: one cache entry per symbolic signature (BladeDISC).
	KeySymbolic CacheKeying = iota
	// KeyConcrete: one entry per concrete shape tuple (XLA, TVM).
	KeyConcrete
	// KeyClass: one entry per shape *class* — dims classed as 1 vs dynamic
	// with power-of-two size classes (Torch Inductor dynamic mode guards).
	KeyClass
	// KeyBucket: one entry per padding bucket (TensorRT optimization
	// profiles); inputs pay for the bucket's padded shapes.
	KeyBucket
)

// CompiledParams configures a compiled-family strategy.
type CompiledParams struct {
	Name string
	// Fusion is the planner configuration (stitching off for XLA etc.).
	Fusion fusion.Config
	// Codegen toggles specialization variants.
	Codegen codegen.Options
	// Keying selects the compilation-cache key.
	Keying CacheKeying
	// CompileNs is charged on every cache miss.
	CompileNs float64
	// HostNsPerLaunch is runtime dispatch overhead per launch.
	HostNsPerLaunch float64
	// GuardNsPerCall is charged once per invocation (Inductor's guard
	// evaluation); zero for others.
	GuardNsPerCall float64
	// DeviceTimeScale scales kernel time to model codegen quality
	// differences (static specialization, tuning) relative to the shared
	// dynamic lowering. < 1 is faster.
	DeviceTimeScale float64
	// MaxCacheEntries caps the compilation cache (a tuning budget: TVM
	// tunes the K hottest shapes offline). 0 means unbounded. Shapes
	// beyond the budget run untuned at FallbackScale, with no stall.
	MaxCacheEntries int
	// FallbackScale is the device-time scale for shapes outside the
	// tuning budget.
	FallbackScale float64
	// AdaptiveSpeculation enables the runtime shape-feedback loop: after
	// a warmup window, dominant dimension values are declared likely and
	// the executable is relowered once with speculative variants.
	AdaptiveSpeculation bool
	// Hook, when set, opens an `exec` span (with per-unit kernel and
	// library children) on every invocation; discrun's -trace-out
	// threads a tracer here. Nil costs one branch per run.
	Hook obs.Hook
	// Metrics, when set, registers the engine's execution counters and
	// buffer-pool gauges. Nil is a no-op.
	Metrics *obs.Registry
}

// BladeDISCParams is the paper's system: full dynamic-shape fusion and
// specialization, symbolic cache.
func BladeDISCParams() CompiledParams {
	return CompiledParams{
		Name:                "BladeDISC",
		Fusion:              fusion.DefaultConfig(),
		Codegen:             codegen.DefaultOptions(),
		Keying:              KeySymbolic,
		CompileNs:           0.9e9,
		HostNsPerLaunch:     1500,
		DeviceTimeScale:     1.0,
		AdaptiveSpeculation: true,
	}
}

// XLAParams models XLA: strong static fusion (no stitching), slightly
// better static kernels, recompiles per concrete shape.
func XLAParams() CompiledParams {
	return CompiledParams{
		Name: "XLA",
		// XLA's GPU pipeline includes horizontal loop fusion; stitching
		// (shared-memory skeleton fusion) is the BladeDISC-only piece.
		Fusion:          fusion.Config{EnableLoop: true, EnableInput: true, EnableHorizontal: true},
		Codegen:         codegen.Options{Vectorize: true},
		Keying:          KeyConcrete,
		CompileNs:       1.6e9,
		HostNsPerLaunch: 1800,
		DeviceTimeScale: 0.9,
	}
}

// TVMParams models TVM: per-shape tuned kernels — fast steady state, very
// expensive per new shape.
func TVMParams() CompiledParams {
	return CompiledParams{
		Name:            "TVM",
		Fusion:          fusion.Config{EnableLoop: true, EnableInput: true, EnableHorizontal: true},
		Codegen:         codegen.Options{Vectorize: true},
		Keying:          KeyConcrete,
		CompileNs:       24e9,
		HostNsPerLaunch: 1500,
		DeviceTimeScale: 0.86,
		MaxCacheEntries: 8,
		FallbackScale:   1.8,
	}
}

// InductorParams models Torch Inductor's dynamic-shape mode: symbolic
// compilation with per-call guard evaluation, weaker fusion, and
// recompilation when a guard class flips.
func InductorParams() CompiledParams {
	return CompiledParams{
		Name:            "TorchInductor",
		Fusion:          fusion.Config{EnableLoop: true, EnableInput: true},
		Codegen:         codegen.Options{},
		Keying:          KeyClass,
		CompileNs:       2.5e9,
		HostNsPerLaunch: 2500,
		GuardNsPerCall:  52000,
		DeviceTimeScale: 1.85,
	}
}

// TensorRTParams models TensorRT: bucketed engines with padding; excellent
// kernels at the bucket shapes, padded work and per-engine builds paid for.
func TensorRTParams() CompiledParams {
	return CompiledParams{
		Name: "TensorRT",
		// Engines built over dynamic optimization profiles lose the
		// shape-specific tactic selection and some fusions of fixed-shape
		// engines: stitch-level fusion off, near-par kernel quality.
		Fusion:          fusion.Config{EnableLoop: true, EnableInput: true, EnableHorizontal: true},
		Codegen:         codegen.DefaultOptions(),
		Keying:          KeyBucket,
		CompileNs:       6e9,
		HostNsPerLaunch: 1000,
		DeviceTimeScale: 1.0,
	}
}

// Compiled is a compiled-family strategy over the shared pipeline. The
// executable itself is shape-generic; the *cost* of static strategies comes
// from their cache keying (recompiles) and, for buckets, padded shapes.
type Compiled struct {
	params CompiledParams
	g      *graph.Graph
	// mu serializes invocations: the cache, the feedback histogram and
	// the (respecializable) executable are shared mutable state.
	mu  sync.Mutex
	exe *exec.Executable
	// compiled is the simulated compilation cache: the keys this strategy
	// has "compiled" so far, with its lookup counters. Nothing is built or
	// run from it — a hit or miss only decides what stall to charge.
	compiled     map[string]bool
	hits, misses int
	fb           *feedback
}

// NewCompiled optimizes, plans and lowers the model once. The graph is
// consumed (mutated by the pass pipeline).
func NewCompiled(g *graph.Graph, dev *device.Model, p CompiledParams) (*Compiled, error) {
	pipeline := opt.Default()
	if !p.Fusion.EnableLoop && !p.Fusion.EnableInput && !p.Fusion.EnableStitch {
		// No fusion to enable: duplication would only add kernels.
		pipeline = opt.WithoutDuplication()
	}
	if _, err := pipeline.Run(g); err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", p.Name, err)
	}
	plan, err := fusion.NewPlanner(p.Fusion).Plan(g)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", p.Name, err)
	}
	exe, err := exec.Compile(g, plan, dev, exec.Options{
		Codegen:        p.Codegen,
		HostDispatchNs: p.HostNsPerLaunch,
		AliasViews:     true,
		Hook:           p.Hook,
		Metrics:        p.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", p.Name, err)
	}
	c := &Compiled{params: p, g: g, exe: exe, compiled: map[string]bool{}}
	if p.AdaptiveSpeculation {
		c.fb = newFeedback()
	}
	return c, nil
}

// Name implements Strategy.
func (c *Compiled) Name() string { return c.params.Name }

// Plan exposes the fusion plan (for the fusion-statistics experiment).
func (c *Compiled) Plan() *fusion.Plan { return c.exe.Plan }

// CacheStats exposes compilation-cache behaviour (hits, misses, entries).
func (c *Compiled) CacheStats() (int, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.compiled)
}

// Invoke implements Strategy. Invocations are serialized internally.
func (c *Compiled) Invoke(inputs []*tensor.Tensor) ([]*tensor.Tensor, *ral.Profiler, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	shapes := make([][]int, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.Shape()
	}
	prof, scale := c.chargeCacheAndGuards(shapes)
	res, err := c.exe.Run(inputs)
	if err != nil {
		return nil, nil, err
	}
	runProf := res.Profile
	if c.params.Keying == KeyBucket {
		// The engine executes at the bucket's padded shapes: replace the
		// execution cost with a simulation at the padded shapes. Outputs
		// keep the real (unpadded) numerics — the engine masks padding.
		runProf, err = c.exe.Simulate(c.paddedShapes(shapes))
		if err != nil {
			return nil, nil, err
		}
	}
	scaleDeviceTime(runProf, scale)
	prof.Add(runProf)
	return res.Outputs, prof, nil
}

// Simulate implements Strategy. Invocations are serialized internally.
func (c *Compiled) Simulate(shapes [][]int) (*ral.Profiler, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prof, scale := c.chargeCacheAndGuards(shapes)
	simShapes := shapes
	if c.params.Keying == KeyBucket {
		simShapes = c.paddedShapes(shapes)
	}
	runProf, err := c.exe.Simulate(simShapes)
	if err != nil {
		return nil, err
	}
	scaleDeviceTime(runProf, scale)
	prof.Add(runProf)
	return prof, nil
}

// chargeCacheAndGuards applies the cache-keying mechanism and per-call
// guard overheads for one request, returning the device-time scale to use
// (the tuned scale, or the fallback scale when the tuning budget is
// exhausted and this shape is uncovered).
func (c *Compiled) chargeCacheAndGuards(shapes [][]int) (*ral.Profiler, float64) {
	key := c.cacheKey(shapes)
	prof := ral.NewProfiler()
	scale := c.params.DeviceTimeScale
	cached := c.compiled[key]
	budgetFull := c.params.MaxCacheEntries > 0 && len(c.compiled) >= c.params.MaxCacheEntries
	if budgetFull && !cached {
		// Outside the tuning budget: no stall, untuned kernels.
		scale = c.params.FallbackScale
		if scale <= 0 {
			scale = 1.5
		}
		if c.params.GuardNsPerCall > 0 {
			prof.Host(c.params.GuardNsPerCall)
		}
		return prof, scale
	}
	if cached {
		c.hits++
	} else {
		c.compiled[key] = true
		c.misses++
		prof.Compile(c.params.CompileNs)
	}
	if c.params.GuardNsPerCall > 0 {
		prof.Host(c.params.GuardNsPerCall)
	}
	if stall := c.maybeRespecialize(shapes); stall > 0 {
		prof.Compile(stall)
	}
	return prof, scale
}

// paddedShapes rounds every dynamic dim up to its bucket.
func (c *Compiled) paddedShapes(shapes [][]int) [][]int {
	padded := make([][]int, len(shapes))
	for i, s := range shapes {
		padded[i] = bucketShape(s, c.dynamicDims(i))
	}
	return padded
}

// cacheKey renders the cache key per the strategy's keying mechanism.
func (c *Compiled) cacheKey(shapes [][]int) string {
	switch c.params.Keying {
	case KeySymbolic:
		paramShapes := make([]symshape.Shape, len(c.g.Params))
		for i, p := range c.g.Params {
			paramShapes[i] = p.Shape
		}
		return c.g.Ctx.Signature(paramShapes)
	case KeyConcrete:
		return symshape.ConcreteSignature(shapes)
	case KeyClass:
		classed := make([][]int, len(shapes))
		for i, s := range shapes {
			cs := make([]int, len(s))
			for j, d := range s {
				cs[j] = sizeClass(d)
			}
			classed[i] = cs
		}
		return symshape.ConcreteSignature(classed)
	case KeyBucket:
		padded := make([][]int, len(shapes))
		for i, s := range shapes {
			padded[i] = bucketShape(s, c.dynamicDims(i))
		}
		return symshape.ConcreteSignature(padded)
	}
	return "?"
}

// dynamicDims reports which dims of parameter i are dynamic (static dims
// are never padded — the engine profile fixes them).
func (c *Compiled) dynamicDims(i int) []bool {
	p := c.g.Params[i]
	dyn := make([]bool, p.Rank())
	for j, d := range p.Shape {
		dyn[j] = !c.g.Ctx.IsStatic(d)
	}
	return dyn
}

// sizeClass buckets a dim for guard-class keying: 1 is special-cased (as
// Inductor does), everything else falls in power-of-two classes.
func sizeClass(d int) int {
	if d <= 1 {
		return d
	}
	return 1 << bits.Len(uint(d-1))
}

// bucketShape rounds dynamic dims up to the next power of two (minimum 32,
// mirroring the coarse optimization profiles of production engines).
func bucketShape(s []int, dyn []bool) []int {
	out := make([]int, len(s))
	for i, d := range s {
		if !dyn[i] || d <= 0 {
			out[i] = d
			continue
		}
		b := d
		if b < 32 {
			b = 32
		}
		out[i] = 1 << bits.Len(uint(b-1))
	}
	return out
}

// NewSuite builds the full comparison set of the paper: BladeDISC plus all
// seven baselines, each on its own copy of the model graph. build must
// return a fresh graph per call.
func NewSuite(build func() *graph.Graph, dev *device.Model) (map[string]Strategy, error) {
	suite := map[string]Strategy{}
	for _, p := range []InterpParams{PyTorchParams(), TorchScriptParams(), ONNXRuntimeParams()} {
		s, err := NewInterpreter(build(), dev, p)
		if err != nil {
			return nil, fmt.Errorf("baselines: %s: %w", p.Name, err)
		}
		suite[p.Name] = s
	}
	for _, p := range []CompiledParams{BladeDISCParams(), XLAParams(), TVMParams(), InductorParams(), TensorRTParams()} {
		s, err := NewCompiled(build(), dev, p)
		if err != nil {
			return nil, err
		}
		suite[p.Name] = s
	}
	return suite, nil
}
