// The previous engine image codec, kept as a test oracle for one release:
// encoding/gob over the kernel ASTs, with every program rebuilt by
// kir.Finalize on decode. The differential tests hold the binary image
// (serialize.go) to it: the programs an image carries must be the ones
// Finalize builds from the same ASTs, and both decoders must produce
// engines with bit-identical outputs.
package exec

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"godisc/internal/codegen"
	"godisc/internal/device"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/kir"
	"godisc/internal/obs"
	"godisc/internal/tensor"
)

// gobImageVersion is the version the gob codec wrote.
const gobImageVersion = 2

func init() {
	// kir ASTs hold interface-typed nodes; gob needs the concrete types.
	gob.Register(kir.IConst(0))
	gob.Register(kir.IDim(""))
	gob.Register(kir.IVar(""))
	gob.Register(kir.IBin{})
	gob.Register(kir.ILoad{})
	gob.Register(kir.FConst(0))
	gob.Register(kir.FLoad{})
	gob.Register(kir.FLocal(""))
	gob.Register(kir.FUn{})
	gob.Register(kir.FBin{})
	gob.Register(kir.FCmp{})
	gob.Register(kir.FSel{})
	gob.Register(kir.FCastInt{})
	gob.Register(kir.SLoop{})
	gob.Register(kir.SSet{})
	gob.Register(kir.SSetInt{})
	gob.Register(kir.SStore{})
	gob.Register(kir.SStoreInt{})
}

// engineImage is the serialized form of an Executable. Everything is plain
// data with exported fields (gob), mirroring the runtime structures 1:1.
type engineImage struct {
	Version   int
	GraphName string
	NumParams int
	OutDTypes []tensor.DType
	OutRefs   [][]dimRef

	// Options that change runtime behavior travel with the engine so a
	// reload replays the original compile exactly; process-local options
	// (pools, hooks, governor) come from the loading process.
	HostDispatchNs  float64
	DisableLiveness bool

	Prog progImage

	NSlots      int
	Refs0       []int32
	Params      []paramImage
	Consts      []constImage
	OutputSlots []int
	Tasks       []taskImage

	Footprint *fpImage
	// MaxFP/MaxFPOK cache MaxFootprintBytes, which needs the symbolic
	// context that does not survive serialization.
	MaxFP   int64
	MaxFPOK bool
}

type progImage struct {
	Slots int
	Fills []fillCheck
	Steps []shapeStep
}

type paramImage struct{ Slot, Param int }

type constImage struct {
	Slot int
	Buf  []float32
}

type taskImage struct {
	InSlots  []int
	OutSlots []int
	Reads    []int
	Unit     unitImage
}

type unitImage struct {
	IsLib bool
	// LibKind/TransB reconstruct the library dispatch (matmul/conv) and
	// span labels; unused for kernel units.
	LibKind graph.OpKind
	TransB  bool

	NumInputs  int
	NumOutputs int

	DomainRefs    []dimRef
	KernelDimRefs []dimRef
	InShapeRefs   [][]dimRef
	OutShapeRefs  [][]dimRef

	Kernel *kernelImage
}

type kernelImage struct {
	Name          string
	ScratchRows   int
	FlopsPerPoint int
	Passes        int
	Variants      []variantImage
}

type variantImage struct {
	Name    string
	Spec    codegen.GuardSpec
	AST     *kir.Kernel
	MemEff  float64
	CompEff float64
}

// encodeImageGob serializes the compiled engine the old way.
func (e *Executable) encodeImageGob() ([]byte, error) {
	img := engineImage{
		Version:         gobImageVersion,
		GraphName:       e.Graph.Name,
		NumParams:       len(e.Graph.Params),
		OutRefs:         e.outRefs,
		HostDispatchNs:  e.opts.HostDispatchNs,
		DisableLiveness: e.opts.DisableLivenessPlanning,
		Prog:            progImage{Slots: e.prog.slots, Fills: e.prog.fills, Steps: e.prog.steps},
		NSlots:          e.nSlots,
		Refs0:           e.refs0,
		OutputSlots:     e.outputSlots,
	}
	for _, o := range e.Graph.Outputs {
		img.OutDTypes = append(img.OutDTypes, o.DType)
	}
	for _, p := range e.paramRefs {
		img.Params = append(img.Params, paramImage{Slot: p.slot, Param: p.param})
	}
	for _, c := range e.constRefs {
		img.Consts = append(img.Consts, constImage{Slot: c.slot, Buf: c.buf})
	}
	for _, t := range e.tasks {
		ti := taskImage{InSlots: t.inSlots, OutSlots: t.outSlots, Reads: t.reads}
		u := t.u
		ti.Unit = unitImage{
			IsLib:         u.isLib,
			NumInputs:     len(u.group.Inputs),
			NumOutputs:    len(u.group.Outputs),
			DomainRefs:    u.domainRefs,
			KernelDimRefs: u.kernelDimRefs,
			InShapeRefs:   u.inShapeRefs,
			OutShapeRefs:  u.outShapeRefs,
		}
		if u.isLib {
			n := u.group.Nodes[0]
			ti.Unit.LibKind = n.Kind
			ti.Unit.TransB = n.TransB
		} else {
			k := u.kernel
			ki := &kernelImage{
				Name:          k.Name,
				ScratchRows:   k.ScratchRows,
				FlopsPerPoint: k.FlopsPerPoint,
				Passes:        k.Passes,
			}
			for _, v := range k.Variants {
				ki.Variants = append(ki.Variants, variantImage{
					Name: v.Name, Spec: v.Spec, AST: v.Code.AST(),
					MemEff: v.MemEfficiency, CompEff: v.ComputeEfficiency,
				})
			}
			ti.Unit.Kernel = ki
		}
		img.Tasks = append(img.Tasks, ti)
	}
	if fp := e.fp; fp != nil {
		img.Footprint = &fpImage{SlotRefs: fp.slotRefs, Pooled: fp.pooled, Live: fp.live}
	}
	img.MaxFP, img.MaxFPOK = e.MaxFootprintBytes()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		return nil, fmt.Errorf("exec: encoding engine image for %s: %w", e.Graph.Name, err)
	}
	return buf.Bytes(), nil
}

type fpImage struct {
	SlotRefs [][]dimRef
	Pooled   []int
	Live     [][]int32
}

// decodeImageGob rebuilds an engine from a gob image, re-running
// kir.Finalize on every kernel AST.
func decodeImageGob(data []byte, dev *device.Model, opts Options) (e *Executable, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("exec: decoding engine image: panic: %v", r)
		}
	}()
	var img engineImage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return nil, fmt.Errorf("exec: decoding engine image: %w", err)
	}
	if img.Version != gobImageVersion {
		return nil, fmt.Errorf("exec: engine image version %d, want %d", img.Version, gobImageVersion)
	}
	if err := validateGobImage(&img); err != nil {
		return nil, err
	}

	opts = opts.withPool()
	opts.HostDispatchNs = img.HostDispatchNs
	opts.DisableLivenessPlanning = img.DisableLiveness

	// Stand-in graph: RunContext needs the parameter count, output dtypes
	// and the name; the symbolic context is compile-time-only (its one
	// runtime consumer, MaxFootprintBytes, is served from the cached bound
	// below).
	g := &graph.Graph{Name: img.GraphName}
	for i := 0; i < img.NumParams; i++ {
		g.Params = append(g.Params, &graph.Node{Kind: graph.OpParameter, ParamIndex: i})
	}
	for _, dt := range img.OutDTypes {
		g.Outputs = append(g.Outputs, &graph.Node{DType: dt})
	}

	e = &Executable{
		Graph:       g,
		Dev:         dev,
		opts:        opts,
		prog:        &shapeProgram{slots: img.Prog.Slots, fills: img.Prog.Fills, steps: img.Prog.Steps},
		outRefs:     img.OutRefs,
		nSlots:      img.NSlots,
		refs0:       img.Refs0,
		outputSlots: img.OutputSlots,
		Pool:        opts.Pool,
		maxFP:       img.MaxFP,
		maxFPOK:     img.MaxFPOK,
		maxFPSet:    true,
	}
	for _, p := range img.Params {
		e.paramRefs = append(e.paramRefs, paramRef{slot: p.Slot, param: p.Param})
	}
	for _, c := range img.Consts {
		e.constRefs = append(e.constRefs, constRef{slot: c.Slot, buf: c.Buf})
	}
	if img.Footprint != nil {
		e.fp = &footprintPlan{
			slotRefs: img.Footprint.SlotRefs,
			pooled:   img.Footprint.Pooled,
			live:     img.Footprint.Live,
		}
	}
	for i := range img.Tasks {
		ti := &img.Tasks[i]
		u, err := decodeGobUnit(&ti.Unit)
		if err != nil {
			return nil, err
		}
		e.units = append(e.units, u)
		e.tasks = append(e.tasks, &task{u: u, inSlots: ti.InSlots, outSlots: ti.OutSlots, reads: ti.Reads})
	}
	if reg := opts.Metrics; reg != nil {
		e.mTasks = reg.Counter("godisc_exec_tasks_total", obs.L("graph", g.Name))
	}
	return e, nil
}

// decodeGobUnit rebuilds one schedulable unit: a synthetic fusion group sized
// like the original (the executor reads only input/output arity and, for
// library calls, the op node) plus the re-finalized kernel.
func decodeGobUnit(ui *unitImage) (*unit, error) {
	grp := &fusion.Group{}
	for i := 0; i < ui.NumInputs; i++ {
		grp.Inputs = append(grp.Inputs, &graph.Node{})
	}
	for i := 0; i < ui.NumOutputs; i++ {
		grp.Outputs = append(grp.Outputs, &graph.Node{})
	}
	u := &unit{
		group:         grp,
		isLib:         ui.IsLib,
		domainRefs:    ui.DomainRefs,
		kernelDimRefs: ui.KernelDimRefs,
		inShapeRefs:   ui.InShapeRefs,
		outShapeRefs:  ui.OutShapeRefs,
	}
	if ui.IsLib {
		grp.Kind = fusion.KLibrary
		grp.Nodes = []*graph.Node{{Kind: ui.LibKind, TransB: ui.TransB}}
		return u, nil
	}
	ki := ui.Kernel
	if ki == nil {
		return nil, fmt.Errorf("exec: engine image: kernel unit without kernel")
	}
	k := &codegen.Kernel{
		Name:          ki.Name,
		Group:         grp,
		ScratchRows:   ki.ScratchRows,
		FlopsPerPoint: ki.FlopsPerPoint,
		Passes:        ki.Passes,
	}
	if len(ki.Variants) == 0 {
		return nil, fmt.Errorf("exec: engine image: kernel %s has no variants", ki.Name)
	}
	for _, vi := range ki.Variants {
		if vi.AST == nil {
			return nil, fmt.Errorf("exec: engine image: kernel %s variant %s has no program", ki.Name, vi.Name)
		}
		cp, err := vi.AST.Finalize()
		if err != nil {
			return nil, fmt.Errorf("exec: engine image: %w", err)
		}
		k.Variants = append(k.Variants, &codegen.Variant{
			Name: vi.Name, Guard: vi.Spec.Func(), Spec: vi.Spec, Code: cp,
			MemEfficiency: vi.MemEff, ComputeEfficiency: vi.CompEff,
		})
	}
	if last := k.Variants[len(k.Variants)-1]; last.Guard != nil {
		return nil, fmt.Errorf("exec: engine image: kernel %s has no fallback variant", ki.Name)
	}
	u.kernel = k
	return u, nil
}

// validateGobImage bounds-checks every structural index so a tampered image
// fails decode instead of crashing a later run.
func validateGobImage(img *engineImage) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("exec: engine image: "+format, args...)
	}
	if img.NumParams < 0 || img.NSlots < 0 || img.Prog.Slots < 0 {
		return bad("negative size")
	}
	checkRef := func(r dimRef) error {
		if r.Slot >= img.Prog.Slots {
			return bad("dim ref slot %d out of range [0,%d)", r.Slot, img.Prog.Slots)
		}
		return nil
	}
	checkRefs := func(refs []dimRef) error {
		for _, r := range refs {
			if err := checkRef(r); err != nil {
				return err
			}
		}
		return nil
	}
	checkSlot := func(s int) error {
		if s < 0 || s >= img.NSlots {
			return bad("slot %d out of range [0,%d)", s, img.NSlots)
		}
		return nil
	}
	if len(img.Refs0) != img.NSlots {
		return bad("%d refcounts for %d slots", len(img.Refs0), img.NSlots)
	}
	if len(img.OutputSlots) != len(img.OutDTypes) || len(img.OutRefs) != len(img.OutDTypes) {
		return bad("output slots/refs/dtypes disagree")
	}
	for _, refs := range img.OutRefs {
		if err := checkRefs(refs); err != nil {
			return err
		}
	}
	for _, s := range img.OutputSlots {
		if err := checkSlot(s); err != nil {
			return err
		}
	}
	for _, p := range img.Params {
		if err := checkSlot(p.Slot); err != nil {
			return err
		}
		if p.Param < 0 || p.Param >= img.NumParams {
			return bad("param index %d out of range [0,%d)", p.Param, img.NumParams)
		}
	}
	for _, c := range img.Consts {
		if err := checkSlot(c.Slot); err != nil {
			return err
		}
	}
	for _, f := range img.Prog.Fills {
		if f.Param < 0 || f.Param >= img.NumParams {
			return bad("fill param %d out of range [0,%d)", f.Param, img.NumParams)
		}
		if f.Slot >= img.Prog.Slots {
			return bad("fill slot %d out of range [0,%d)", f.Slot, img.Prog.Slots)
		}
	}
	for _, s := range img.Prog.Steps {
		if s.Slot < 0 || s.Slot >= img.Prog.Slots {
			return bad("step slot %d out of range [0,%d)", s.Slot, img.Prog.Slots)
		}
		if (s.Kind == stepQuot || s.Kind == stepAffine) && len(s.Args) == 0 {
			return bad("step with missing operand")
		}
		if s.Kind == stepQuot && s.A == 0 {
			return bad("quotient step with zero denominator")
		}
		if err := checkRefs(s.Args); err != nil {
			return err
		}
	}
	if img.Footprint != nil {
		fp := img.Footprint
		if len(fp.SlotRefs) != img.NSlots {
			return bad("%d footprint slot refs for %d slots", len(fp.SlotRefs), img.NSlots)
		}
		for _, refs := range fp.SlotRefs {
			if err := checkRefs(refs); err != nil {
				return err
			}
		}
		for _, s := range fp.Pooled {
			if err := checkSlot(s); err != nil {
				return err
			}
		}
		if len(fp.Live) != len(img.Tasks) {
			return bad("%d footprint live sets for %d tasks", len(fp.Live), len(img.Tasks))
		}
		for _, set := range fp.Live {
			for _, s := range set {
				if err := checkSlot(int(s)); err != nil {
					return err
				}
			}
		}
	}
	for i := range img.Tasks {
		ti := &img.Tasks[i]
		for _, s := range ti.InSlots {
			if err := checkSlot(s); err != nil {
				return err
			}
		}
		for _, s := range ti.OutSlots {
			if err := checkSlot(s); err != nil {
				return err
			}
		}
		for _, s := range ti.Reads {
			if err := checkSlot(s); err != nil {
				return err
			}
		}
		u := &ti.Unit
		if len(u.InShapeRefs) != u.NumInputs || len(ti.InSlots) != u.NumInputs {
			return bad("task %d input arity disagrees", i)
		}
		if len(u.OutShapeRefs) != u.NumOutputs || len(ti.OutSlots) != u.NumOutputs {
			return bad("task %d output arity disagrees", i)
		}
		if u.IsLib && u.NumInputs < 2 {
			return bad("task %d library call with %d inputs", i, u.NumInputs)
		}
		if u.IsLib && u.NumOutputs < 1 {
			return bad("task %d library call with no output", i)
		}
		for _, refs := range [][]dimRef{u.DomainRefs, u.KernelDimRefs} {
			if err := checkRefs(refs); err != nil {
				return err
			}
		}
		for _, rr := range u.InShapeRefs {
			if err := checkRefs(rr); err != nil {
				return err
			}
		}
		for _, rr := range u.OutShapeRefs {
			if err := checkRefs(rr); err != nil {
				return err
			}
		}
	}
	return nil
}
