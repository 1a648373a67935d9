// Engine image serialization: an Executable flattened to bytes so the
// persistent engine cache (internal/enginecache) can write compiled engines
// to disk and a fresh process can reload them without re-running the
// opt/fusion/codegen pipeline or the bytecode compiler.
//
// The image is the engine's runtime state itself, in a versioned
// little-endian binary layout (internal/wire) written without reflection:
// the compiled shape program, the task list with its slot plan, every
// kernel variant's guard spec, efficiencies and finalized VM program
// (kir.Compiled.AppendBinary: the fixed-width instruction array and its
// frame sizes), constants as raw float32 words, the footprint plan and the
// precomputed capacity bound. The header carries ImageVersion and the
// kir.ABI the programs were compiled against.
//
// Decoding is a copy plus a validation: kir.ReadCompiled proves every
// program runs inside its frame and terminates (kir/validate.go), and
// validateEngine bounds-checks every structural index (slots, shape-program
// references, arities, guard terms) before the engine is handed to callers.
// No AST is rebuilt and nothing is compiled, so a decoded engine runs the
// very programs the encoding process compiled. Any malformed input comes
// back as an error: a torn or tampered cache entry degrades to a decode
// error, never a crash.
package exec

import (
	"fmt"

	"godisc/internal/codegen"
	"godisc/internal/device"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/kir"
	"godisc/internal/obs"
	"godisc/internal/tensor"
	"godisc/internal/wire"
)

// ImageVersion is the engine image format version. Bump it whenever the
// image layout, the bytecode a given graph compiles to, or the runtime
// semantics of any serialized field change: the cache layer folds it into
// the compiler fingerprint, so stale images are quarantined instead of
// served. exec:TestZooImageGolden fails when the encoded zoo images change.
const ImageVersion = 3

// imageMagic opens every engine image.
const imageMagic = "GDEI"

// maxImageParams caps the parameter count an image may declare: the
// stand-in graph allocates a node per parameter, and a parameter need not
// occupy any image bytes.
const maxImageParams = 1 << 12

// EncodeImage serializes the compiled engine. The result is deterministic
// for a given engine and independent of process-local options.
func (e *Executable) EncodeImage() ([]byte, error) {
	size := 4096
	for _, c := range e.constRefs {
		size += 4*len(c.buf) + 8
	}
	w := wire.NewWriter(size)
	w.String(imageMagic)
	w.Count(ImageVersion)
	w.String(kir.ABI())
	w.String(e.Graph.Name)
	w.Count(len(e.Graph.Params))
	w.Count(len(e.Graph.Outputs))
	for _, o := range e.Graph.Outputs {
		w.Byte(byte(o.DType))
	}
	writeRefLists(w, e.outRefs)
	w.Float64(e.opts.HostDispatchNs)
	w.Bool(e.opts.DisableLivenessPlanning)

	w.Int(e.prog.slots)
	w.Count(len(e.prog.fills))
	for _, f := range e.prog.fills {
		w.Int(f.Param)
		w.Int(f.Dim)
		w.Int(f.Slot)
		w.Varint(f.Static)
		w.Varint(f.Lo)
		w.Varint(f.Hi)
		w.Varint(f.Div)
	}
	w.Count(len(e.prog.steps))
	for _, s := range e.prog.steps {
		w.Byte(byte(s.Kind))
		w.Int(s.Slot)
		writeRefs(w, s.Args)
		w.Varint(s.A)
		w.Varint(s.B)
	}

	w.Int(e.nSlots)
	w.Count(len(e.refs0))
	for _, r := range e.refs0 {
		w.Int(int(r))
	}
	w.Count(len(e.paramRefs))
	for _, p := range e.paramRefs {
		w.Int(p.slot)
		w.Int(p.param)
	}
	w.Count(len(e.constRefs))
	for _, c := range e.constRefs {
		w.Int(c.slot)
		w.Float32s(c.buf)
	}
	writeInts(w, e.outputSlots)

	w.Count(len(e.tasks))
	for _, t := range e.tasks {
		writeInts(w, t.inSlots)
		writeInts(w, t.outSlots)
		writeInts(w, t.reads)
		writeUnit(w, t.u)
	}

	w.Bool(e.fp != nil)
	if fp := e.fp; fp != nil {
		writeRefLists(w, fp.slotRefs)
		writeInts(w, fp.pooled)
		w.Count(len(fp.live))
		for _, set := range fp.live {
			w.Count(len(set))
			for _, s := range set {
				w.Int(int(s))
			}
		}
	}
	maxFP, ok := e.MaxFootprintBytes()
	w.Varint(maxFP)
	w.Bool(ok)
	return w.Bytes(), nil
}

func writeUnit(w *wire.Writer, u *unit) {
	w.Bool(u.isLib)
	w.Count(len(u.group.Inputs))
	w.Count(len(u.group.Outputs))
	writeRefs(w, u.domainRefs)
	writeRefs(w, u.kernelDimRefs)
	writeRefLists(w, u.inShapeRefs)
	writeRefLists(w, u.outShapeRefs)
	if u.isLib {
		n := u.group.Nodes[0]
		w.Byte(byte(n.Kind))
		w.Bool(n.TransB)
		return
	}
	k := u.kernel
	w.String(k.Name)
	w.Int(k.ScratchRows)
	w.Int(k.FlopsPerPoint)
	w.Int(k.Passes)
	w.Count(len(k.Variants))
	for i, v := range k.Variants {
		w.String(v.Name)
		w.Byte(byte(v.Spec.Kind))
		w.Count(len(v.Spec.Terms))
		for _, t := range v.Spec.Terms {
			w.Int(t.DimIndex)
			w.Int(t.Value)
		}
		w.Int(v.Spec.Div)
		w.Int(v.Spec.MinRow)
		w.Float64(v.MemEfficiency)
		w.Float64(v.ComputeEfficiency)
		// Variants that share a program (row schedules do) share it in the
		// image too: the index of the first variant holding it, else -1
		// and the program.
		shared := -1
		for j, o := range k.Variants[:i] {
			if o.Code == v.Code {
				shared = j
				break
			}
		}
		w.Int(shared)
		if shared < 0 {
			v.Code.AppendBinary(w)
		}
	}
}

func writeInts(w *wire.Writer, xs []int) {
	w.Count(len(xs))
	for _, x := range xs {
		w.Int(x)
	}
}

func writeRefs(w *wire.Writer, refs []dimRef) {
	w.Count(len(refs))
	for _, r := range refs {
		w.Int(r.Slot)
		if r.Slot < 0 {
			w.Varint(r.Static)
		}
	}
}

func writeRefLists(w *wire.Writer, lists [][]dimRef) {
	w.Count(len(lists))
	for _, refs := range lists {
		writeRefs(w, refs)
	}
}

// DecodeImage rebuilds a runnable Executable from a serialized engine
// image. dev supplies the loading process's device model (the cache layer
// folds the device name into the compiler fingerprint, so it always matches
// the encoding device); opts supplies process-local execution options —
// pools, hooks, metrics, governor, faults. Compile-time options
// that affect runtime behavior (host dispatch cost, liveness planning) come
// from the image itself.
//
// DecodeImage never panics on malformed input: it returns an error.
func DecodeImage(data []byte, dev *device.Model, opts Options) (*Executable, error) {
	r := wire.NewReader(data)
	if r.String() != imageMagic {
		return nil, fmt.Errorf("exec: engine image: bad magic")
	}
	if v := r.Uvarint(); v != ImageVersion {
		return nil, fmt.Errorf("exec: engine image version %d, want %d", v, ImageVersion)
	}
	if abi := r.String(); abi != kir.ABI() {
		return nil, fmt.Errorf("exec: engine image: programs compiled for another kir ABI")
	}
	e, err := readEngine(r)
	if err == nil && r.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.Remaining())
	}
	if err == nil {
		err = validateEngine(e)
	}
	if err != nil {
		return nil, fmt.Errorf("exec: engine image: %w", err)
	}
	opts = opts.withPool()
	opts.HostDispatchNs = e.opts.HostDispatchNs
	opts.DisableLivenessPlanning = e.opts.DisableLivenessPlanning
	e.Dev = dev
	e.opts = opts
	e.Pool = opts.Pool
	if reg := opts.Metrics; reg != nil {
		e.mTasks = reg.Counter("godisc_exec_tasks_total", obs.L("graph", e.Graph.Name))
	}
	return e, nil
}

// readEngine reads the image body into an Executable. Structural indices
// are checked afterwards by validateEngine; programs are validated as they
// are read.
func readEngine(r *wire.Reader) (*Executable, error) {
	// Stand-in graph: RunContext needs the parameter count, output dtypes
	// and the name; the symbolic context is compile-time-only (its one
	// runtime consumer, MaxFootprintBytes, is served from the cached bound
	// the image carries).
	g := &graph.Graph{Name: r.String()}
	nParams := r.Count(1)
	if nParams > maxImageParams {
		r.Fail("%d parameters", nParams)
		nParams = 0
	}
	g.Params = make([]*graph.Node, nParams)
	for i := range g.Params {
		g.Params[i] = &graph.Node{Kind: graph.OpParameter, ParamIndex: i}
	}
	g.Outputs = make([]*graph.Node, r.Count(1))
	for i := range g.Outputs {
		g.Outputs[i] = &graph.Node{DType: tensor.DType(r.Byte())}
	}
	e := &Executable{Graph: g, maxFPSet: true}
	e.outRefs = readRefLists(r)
	e.opts.HostDispatchNs = r.Float64()
	e.opts.DisableLivenessPlanning = r.Bool()

	e.prog = &shapeProgram{slots: r.Int()}
	e.prog.fills = make([]fillCheck, r.Count(7))
	for i := range e.prog.fills {
		f := &e.prog.fills[i]
		f.Param, f.Dim, f.Slot = r.Int(), r.Int(), r.Int()
		f.Static, f.Lo, f.Hi, f.Div = r.Int64(), r.Int64(), r.Int64(), r.Int64()
	}
	e.prog.steps = make([]shapeStep, r.Count(5))
	for i := range e.prog.steps {
		s := &e.prog.steps[i]
		s.Kind = shapeStepKind(r.Byte())
		s.Slot = r.Int()
		s.Args = readRefs(r)
		s.A, s.B = r.Int64(), r.Int64()
	}

	e.nSlots = r.Int()
	e.refs0 = make([]int32, r.Count(1))
	for i := range e.refs0 {
		e.refs0[i] = int32(r.Int())
	}
	e.paramRefs = make([]paramRef, r.Count(2))
	for i := range e.paramRefs {
		e.paramRefs[i] = paramRef{slot: r.Int(), param: r.Int()}
	}
	e.constRefs = make([]constRef, r.Count(2))
	for i := range e.constRefs {
		e.constRefs[i] = constRef{slot: r.Int(), buf: r.Float32s()}
	}
	e.outputSlots = readInts(r)

	nTasks := r.Count(8)
	e.tasks = make([]*task, nTasks)
	e.units = make([]*unit, nTasks)
	for i := range e.tasks {
		t := &task{inSlots: readInts(r), outSlots: readInts(r), reads: readInts(r)}
		u, err := readUnit(r)
		if err != nil {
			return nil, fmt.Errorf("task %d: %w", i, err)
		}
		t.u = u
		e.tasks[i], e.units[i] = t, u
	}

	if r.Bool() {
		fp := &footprintPlan{slotRefs: readRefLists(r), pooled: readInts(r)}
		fp.live = make([][]int32, r.Count(1))
		for i := range fp.live {
			set := make([]int32, r.Count(1))
			for j := range set {
				set[j] = int32(r.Int())
			}
			fp.live[i] = set
		}
		e.fp = fp
	}
	e.maxFP = r.Int64()
	e.maxFPOK = r.Bool()
	return e, r.Err()
}

// readUnit rebuilds one schedulable unit: a synthetic fusion group sized
// like the original (the executor reads only input/output arity and, for
// library calls, the op node) plus the kernel with its validated programs.
func readUnit(r *wire.Reader) (*unit, error) {
	u := &unit{isLib: r.Bool()}
	grp := &fusion.Group{
		Inputs:  make([]*graph.Node, r.Count(1)),
		Outputs: make([]*graph.Node, r.Count(1)),
	}
	u.group = grp
	u.domainRefs = readRefs(r)
	u.kernelDimRefs = readRefs(r)
	u.inShapeRefs = readRefLists(r)
	u.outShapeRefs = readRefLists(r)
	if u.isLib {
		grp.Kind = fusion.KLibrary
		grp.Nodes = []*graph.Node{{Kind: graph.OpKind(r.Byte()), TransB: r.Bool()}}
		return u, r.Err()
	}
	k := &codegen.Kernel{Name: r.String(), Group: grp}
	k.ScratchRows, k.FlopsPerPoint, k.Passes = r.Int(), r.Int(), r.Int()
	k.Variants = make([]*codegen.Variant, r.Count(1))
	for i := range k.Variants {
		v := &codegen.Variant{Name: r.String()}
		v.Spec.Kind = codegen.GuardKind(r.Byte())
		if n := r.Count(2); n > 0 {
			v.Spec.Terms = make([]codegen.GuardTerm, n)
			for j := range v.Spec.Terms {
				v.Spec.Terms[j] = codegen.GuardTerm{DimIndex: r.Int(), Value: r.Int()}
			}
		}
		v.Spec.Div, v.Spec.MinRow = r.Int(), r.Int()
		v.MemEfficiency, v.ComputeEfficiency = r.Float64(), r.Float64()
		switch shared := r.Int(); {
		case r.Err() != nil:
			return nil, r.Err()
		case shared < -1 || shared >= i:
			return nil, fmt.Errorf("variant %d shares the program of variant %d", i, shared)
		case shared >= 0:
			v.Code = k.Variants[shared].Code
		default:
			cp, err := kir.ReadCompiled(r)
			if err != nil {
				return nil, err
			}
			v.Code = cp
		}
		v.Guard = v.Spec.Func()
		k.Variants[i] = v
	}
	u.kernel = k
	return u, r.Err()
}

func readInts(r *wire.Reader) []int {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Int()
	}
	return xs
}

func readRefs(r *wire.Reader) []dimRef {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	refs := make([]dimRef, n)
	for i := range refs {
		refs[i].Slot = r.Int()
		if refs[i].Slot < 0 {
			refs[i].Static = r.Int64()
		}
	}
	return refs
}

func readRefLists(r *wire.Reader) [][]dimRef {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	lists := make([][]dimRef, n)
	for i := range lists {
		lists[i] = readRefs(r)
	}
	return lists
}

// validateEngine bounds-checks every structural index of a decoded engine,
// so a tampered image fails decode instead of crashing a later run.
func validateEngine(e *Executable) error {
	nParams := len(e.Graph.Params)
	c := engineChecker{nSlots: e.nSlots, nShape: e.prog.slots}
	// Every shape slot is bound by a fill or computed by a step; the bound
	// also caps the per-run slot vector the shape program allocates.
	if c.nSlots < 0 || c.nShape < 0 || c.nShape > len(e.prog.fills)+len(e.prog.steps) {
		return fmt.Errorf("%d slots, %d shape slots for %d fills and %d steps",
			c.nSlots, c.nShape, len(e.prog.fills), len(e.prog.steps))
	}
	if len(e.refs0) != c.nSlots {
		return fmt.Errorf("%d refcounts for %d slots", len(e.refs0), c.nSlots)
	}
	if len(e.outputSlots) != len(e.Graph.Outputs) || len(e.outRefs) != len(e.Graph.Outputs) {
		return fmt.Errorf("output slots/refs/dtypes disagree")
	}
	if err := c.refLists(e.outRefs); err != nil {
		return err
	}
	if err := c.slots(e.outputSlots...); err != nil {
		return err
	}
	for _, p := range e.paramRefs {
		if err := c.slots(p.slot); err != nil {
			return err
		}
		if p.param < 0 || p.param >= nParams {
			return fmt.Errorf("param index %d out of range [0,%d)", p.param, nParams)
		}
	}
	for _, cr := range e.constRefs {
		if err := c.slots(cr.slot); err != nil {
			return err
		}
	}
	for _, f := range e.prog.fills {
		if f.Param < 0 || f.Param >= nParams {
			return fmt.Errorf("fill param %d out of range [0,%d)", f.Param, nParams)
		}
		if f.Dim < 0 || f.Slot >= c.nShape || f.Slot < -1 {
			return fmt.Errorf("fill dim %d slot %d out of range [0,%d)", f.Dim, f.Slot, c.nShape)
		}
	}
	for _, s := range e.prog.steps {
		if s.Slot < 0 || s.Slot >= c.nShape {
			return fmt.Errorf("step slot %d out of range [0,%d)", s.Slot, c.nShape)
		}
		if s.Kind > stepAffine {
			return fmt.Errorf("step kind %d unknown", s.Kind)
		}
		if (s.Kind == stepQuot || s.Kind == stepAffine) && len(s.Args) == 0 {
			return fmt.Errorf("step with missing operand")
		}
		if s.Kind == stepQuot && s.A == 0 {
			return fmt.Errorf("quotient step with zero denominator")
		}
		if err := c.refs(s.Args); err != nil {
			return err
		}
	}
	if fp := e.fp; fp != nil {
		if len(fp.slotRefs) != c.nSlots {
			return fmt.Errorf("%d footprint slot refs for %d slots", len(fp.slotRefs), c.nSlots)
		}
		if err := c.refLists(fp.slotRefs); err != nil {
			return err
		}
		if err := c.slots(fp.pooled...); err != nil {
			return err
		}
		if len(fp.live) != len(e.tasks) {
			return fmt.Errorf("%d footprint live sets for %d tasks", len(fp.live), len(e.tasks))
		}
		for _, set := range fp.live {
			for _, s := range set {
				if err := c.slots(int(s)); err != nil {
					return err
				}
			}
		}
	}
	for i, t := range e.tasks {
		if err := c.task(t); err != nil {
			return fmt.Errorf("task %d: %w", i, err)
		}
	}
	return nil
}

// engineChecker bounds-checks slot ids and shape references against a
// decoded engine's slot counts.
type engineChecker struct{ nSlots, nShape int }

func (c engineChecker) slots(slots ...int) error {
	for _, s := range slots {
		if s < 0 || s >= c.nSlots {
			return fmt.Errorf("slot %d out of range [0,%d)", s, c.nSlots)
		}
	}
	return nil
}

func (c engineChecker) refs(refs []dimRef) error {
	for _, r := range refs {
		if r.Slot >= c.nShape || r.Slot < -1 {
			return fmt.Errorf("dim ref slot %d out of range [0,%d)", r.Slot, c.nShape)
		}
	}
	return nil
}

func (c engineChecker) refLists(lists [][]dimRef) error {
	for _, refs := range lists {
		if err := c.refs(refs); err != nil {
			return err
		}
	}
	return nil
}

// task checks one task: its slots and shapes, its arity, and for a kernel
// its variants' guards and programs against the unit they run in.
func (c engineChecker) task(t *task) error {
	u := t.u
	for _, slots := range [][]int{t.inSlots, t.outSlots, t.reads} {
		if err := c.slots(slots...); err != nil {
			return err
		}
	}
	nIn, nOut := len(u.group.Inputs), len(u.group.Outputs)
	if len(u.inShapeRefs) != nIn || len(t.inSlots) != nIn {
		return fmt.Errorf("input arity disagrees")
	}
	if len(u.outShapeRefs) != nOut || len(t.outSlots) != nOut {
		return fmt.Errorf("output arity disagrees")
	}
	for _, lists := range [][][]dimRef{{u.domainRefs, u.kernelDimRefs}, u.inShapeRefs, u.outShapeRefs} {
		if err := c.refLists(lists); err != nil {
			return err
		}
	}
	if u.isLib {
		if nIn < 2 || nOut < 1 {
			return fmt.Errorf("library call with %d inputs, %d outputs", nIn, nOut)
		}
		return nil
	}
	k := u.kernel
	if len(k.Variants) == 0 {
		return fmt.Errorf("kernel %s has no variants", k.Name)
	}
	if k.ScratchRows < 0 || k.Passes < 1 {
		return fmt.Errorf("kernel %s: %d scratch rows, %d passes", k.Name, k.ScratchRows, k.Passes)
	}
	for i, v := range k.Variants {
		if err := validateSpec(v.Spec, len(u.kernelDimRefs)); err != nil {
			return fmt.Errorf("kernel %s variant %s: %w", k.Name, v.Name, err)
		}
		if i == len(k.Variants)-1 && v.Spec.Kind != codegen.GuardAlways {
			return fmt.Errorf("kernel %s has no fallback variant", k.Name)
		}
		if n := len(v.Code.DimNames()); n != len(u.kernelDimRefs) {
			return fmt.Errorf("kernel %s variant %s: %d dims for %d dim refs", k.Name, v.Name, n, len(u.kernelDimRefs))
		}
		if n := v.Code.NumBuffers(); n != nIn+nOut+k.ScratchRows {
			return fmt.Errorf("kernel %s variant %s: %d buffers for %d inputs, %d outputs, %d scratch rows",
				k.Name, v.Name, n, nIn, nOut, k.ScratchRows)
		}
	}
	return nil
}

// validateSpec checks a guard spec against the kernel's dim count: the
// predicate Spec.Func builds indexes dims by term and divides by Div.
func validateSpec(s codegen.GuardSpec, nDims int) error {
	switch s.Kind {
	case codegen.GuardAlways, codegen.GuardRowAtLeast:
	case codegen.GuardDimsEqual:
		for _, t := range s.Terms {
			if t.DimIndex < 0 || t.DimIndex >= nDims {
				return fmt.Errorf("guard dim %d out of range [0,%d)", t.DimIndex, nDims)
			}
		}
	case codegen.GuardNumelDivisible:
		if s.Div <= 0 {
			return fmt.Errorf("guard divisor %d", s.Div)
		}
	default:
		return fmt.Errorf("guard kind %d unknown", s.Kind)
	}
	return nil
}
