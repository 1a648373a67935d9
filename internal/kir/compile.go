package kir

import (
	"fmt"
	"sync"

	"godisc/internal/tensor"
)

// FuncTable maps scalar function names used by FUn/FBin to implementations.
// Sharing the tensor package's functions guarantees the bytecode VM and the
// reference interpreter are bit-identical.
var (
	unaryFuncs = map[string]tensor.UnaryFunc{
		"neg": tensor.FnNeg, "abs": tensor.FnAbs, "exp": tensor.FnExp,
		"log": tensor.FnLog, "sqrt": tensor.FnSqrt, "rsqrt": tensor.FnRsqrt,
		"tanh": tensor.FnTanh, "erf": tensor.FnErf, "sigmoid": tensor.FnSigmoid,
		"relu": tensor.FnRelu, "gelu": tensor.FnGelu, "id": func(x float32) float32 { return x },
	}
	binaryFuncs = map[string]tensor.BinaryFunc{
		"add": tensor.FnAdd, "sub": tensor.FnSub, "mul": tensor.FnMul,
		"div": tensor.FnDiv, "pow": tensor.FnPow, "max": tensor.FnMax,
		"min": tensor.FnMin,
	}
)

// Frame is the runtime activation record of a compiled kernel: ints/floats
// are the VM's flat register file. tmps are the row temporaries of split
// sweeps; they persist across pooled uses and grow on demand (opRowTmp).
// When a kernel has temporaries, bufs is all: the caller's buffers followed
// by the temporaries, so row ops address both by buffer index.
type Frame struct {
	ints   []int
	floats []float32
	bufs   [][]float32
	dims   []int
	tmps   [][]float32
	all    [][]float32
}

// Compiled is a kernel after compilation ("machine code"). It is immutable
// and safe for concurrent Run calls (frames are pooled per kernel; every
// register is written before it is read, so frames need no zeroing between
// runs).
type Compiled struct {
	// kernel is the AST the program was compiled from; nil for a program
	// read back from an engine image (ReadCompiled), which carries no AST.
	kernel     *Kernel
	name       string
	numBuffers int
	dimNames   []string
	nInts      int
	nFloats    int
	nTmps      int
	frames     sync.Pool

	// prog is the flat bytecode program (vm.go executes it).
	prog *program
}

// Finalize validates the kernel and compiles it to bytecode. This is the
// compile-time half of the combined codegen: after Finalize, Run only binds
// runtime dims and buffers.
func (k *Kernel) Finalize() (*Compiled, error) {
	dimSlot := map[string]int{}
	for i, d := range k.DimNames {
		if _, dup := dimSlot[d]; dup {
			return nil, fmt.Errorf("kir: kernel %s: duplicate dim %q", k.Name, d)
		}
		dimSlot[d] = i
	}
	cp := &Compiled{kernel: k, name: k.Name, numBuffers: k.NumBuffers, dimNames: k.DimNames}
	if err := cp.finalizeBytecode(dimSlot); err != nil {
		return nil, err
	}
	// Every program the compiler emits must pass the validator an engine
	// image is read back through, so a persisted program always reloads.
	if err := cp.validate(); err != nil {
		return nil, fmt.Errorf("kir: kernel %s: compiler emitted an invalid program: %w", k.Name, err)
	}
	return cp, nil
}

// MustFinalize is Finalize that panics; for statically-known-good kernels
// in tests.
func (k *Kernel) MustFinalize() *Compiled {
	cp, err := k.Finalize()
	if err != nil {
		panic(err)
	}
	return cp
}

func (cp *Compiled) checkArgs(bufs [][]float32, dims []int) error {
	if len(bufs) != cp.numBuffers {
		return fmt.Errorf("kir: kernel %s: got %d buffers, want %d",
			cp.name, len(bufs), cp.numBuffers)
	}
	if len(dims) != len(cp.dimNames) {
		return fmt.Errorf("kir: kernel %s: got %d dims, want %d",
			cp.name, len(dims), len(cp.dimNames))
	}
	return nil
}

func (cp *Compiled) getFrame(bufs [][]float32, dims []int) *Frame {
	f, _ := cp.frames.Get().(*Frame)
	if f == nil {
		f = &Frame{
			ints:   make([]int, cp.nInts),
			floats: make([]float32, cp.nFloats),
			tmps:   make([][]float32, cp.nTmps),
		}
	}
	if len(f.tmps) > 0 {
		f.all = append(append(f.all[:0], bufs...), f.tmps...)
		bufs = f.all
	}
	f.bufs = bufs
	f.dims = dims
	return f
}

// putFrame clears the buffer and dim references before pooling so a pooled
// frame never pins caller memory — including when the kernel panicked and
// the put runs from a defer.
func (cp *Compiled) putFrame(f *Frame) {
	clear(f.all)
	f.bufs = nil
	f.dims = nil
	cp.frames.Put(f)
}

// Run executes the kernel against flat buffers and positional dim values
// (aligned with Kernel.DimNames). The frame is returned to the pool even if
// the kernel panics (exec's fault handler recovers kernel panics; the frame
// must not leak with them).
func (cp *Compiled) Run(bufs [][]float32, dims []int) error {
	if err := cp.checkArgs(bufs, dims); err != nil {
		return err
	}
	f := cp.getFrame(bufs, dims)
	defer cp.putFrame(f)
	cp.prog.exec(f)
	return nil
}

// Name returns the kernel's name.
func (cp *Compiled) Name() string { return cp.name }

// AST returns the kernel AST this program was compiled from, or nil for a
// program read back from an engine image: images persist the program
// itself (binary.go), not the AST.
func (cp *Compiled) AST() *Kernel { return cp.kernel }

// NumBuffers returns the number of buffers Run takes.
func (cp *Compiled) NumBuffers() int { return cp.numBuffers }

// DimNames returns the runtime dim parameter names.
func (cp *Compiled) DimNames() []string { return cp.dimNames }

// Superinstructions reports how many whole-row superinstructions the
// bytecode compiler emitted — exposed for tests and tracing.
func (cp *Compiled) Superinstructions() int { return cp.prog.supers }

// PerElementSweeps lists, for every LoopStride1 loop the bytecode compiler
// left as per-element code, the rule that rejected its row form. An empty
// list means every contiguous sweep of the kernel runs as row ops.
func (cp *Compiled) PerElementSweeps() []string { return cp.prog.perElem }
