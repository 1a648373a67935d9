package kir

import (
	"reflect"
	"strings"
	"testing"
)

// split_test pins sweep splitting: multi-statement stride-1 bodies become
// sequences of row ops bit-identical to the interpreter, and every rule
// that keeps a sweep per-element rejects exactly the bodies it names.

// layerNormStitch is the stitched residual-add + layernorm kernel codegen
// emits for bert (row_g2): rows of 32 over $r rows; b0+b1 is the residual
// sum, b2[0] eps, b3/b4 gamma/beta, b5 the output, b6/b7 scratch rows.
// $l is unused by the body; bound to 32 it sizes test buffers to r*32.
func layerNormStitch() *Kernel {
	flat := func(j string) IntExpr { return Add(Mul(IVar("r"), IConst(32)), IVar(j)) }
	return &Kernel{
		Name:       "layernorm_stitch",
		NumBuffers: 8,
		DimNames:   []string{"r", "l"},
		Body: []Stmt{SLoop{Var: "r", Extent: IDim("r"), Body: []Stmt{
			SSet{Var: "acc0", Val: FConst(0)},
			SLoop{Var: "j0", Extent: IConst(32), Flags: LoopStride1, Body: []Stmt{
				SSetInt{Var: "flat0", Val: flat("j0")},
				SSet{Var: "x", Val: FBin{Fn: "add", A: FLoad{Buf: 0, Idx: IVar("flat0")}, B: FLoad{Buf: 1, Idx: IVar("flat0")}}},
				SStore{Buf: 6, Idx: IVar("j0"), Val: FLocal("x")},
				SSet{Var: "acc0", Val: FBin{Fn: "add", A: FLocal("acc0"), B: FLocal("x")}},
			}},
			SSet{Var: "mean", Val: FBin{Fn: "div", A: FLocal("acc0"), B: FCastInt{X: IConst(32)}}},
			SSet{Var: "acc1", Val: FConst(0)},
			SLoop{Var: "j1", Extent: IConst(32), Flags: LoopStride1, Body: []Stmt{
				SSetInt{Var: "flat1", Val: flat("j1")},
				SSet{Var: "d", Val: FBin{Fn: "sub", A: FLoad{Buf: 6, Idx: IVar("j1")}, B: FLocal("mean")}},
				SStore{Buf: 7, Idx: IVar("j1"), Val: FLocal("d")},
				SSet{Var: "sq", Val: FBin{Fn: "mul", A: FLocal("d"), B: FLocal("d")}},
				SSet{Var: "acc1", Val: FBin{Fn: "add", A: FLocal("acc1"), B: FLocal("sq")}},
			}},
			SSet{Var: "var", Val: FBin{Fn: "div", A: FLocal("acc1"), B: FCastInt{X: IConst(32)}}},
			SSet{Var: "rstd", Val: FUn{Fn: "rsqrt", X: FBin{Fn: "add", A: FLocal("var"), B: FLoad{Buf: 2, Idx: IConst(0)}}}},
			SLoop{Var: "j2", Extent: IConst(32), Flags: LoopStride1, Body: []Stmt{
				SSetInt{Var: "flat2", Val: flat("j2")},
				SSet{Var: "n", Val: FBin{Fn: "mul", A: FLoad{Buf: 7, Idx: IVar("j2")}, B: FLocal("rstd")}},
				SSet{Var: "g", Val: FBin{Fn: "mul", A: FLocal("n"), B: FLoad{Buf: 3, Idx: IVar("j2")}}},
				SStore{Buf: 5, Idx: IVar("flat2"), Val: FBin{Fn: "add", A: FLocal("g"), B: FLoad{Buf: 4, Idx: IVar("j2")}}},
			}},
		}}},
	}
}

// accKernel wraps a stride-1 body over $n with an accumulator defined
// before the loop and stored after it.
func accKernel(body []Stmt) *Kernel {
	k := stride1Row(body)
	k.NumBuffers = 4
	k.Body = []Stmt{
		SSet{Var: "acc", Val: FConst(0)},
		k.Body[0],
		SStore{Buf: 3, Idx: IConst(0), Val: FLocal("acc")},
	}
	return k
}

// withExtent sets the extent of k's stride-1 sweep, keeping shifted and
// unrolled indices inside buffers of n elements.
func withExtent(k *Kernel, e IntExpr) *Kernel {
	for i, s := range k.Body {
		if l, ok := s.(SLoop); ok {
			l.Extent = e
			k.Body[i] = l
		}
	}
	return k
}

var (
	nMinus1 = IntExpr(IBin{Op: ISub, A: IDim("n"), B: IConst(1)})
	nHalf   = Div(IDim("n"), IConst(2))
)

func TestSplitSweeps(t *testing.T) {
	x := FLoad{Buf: 0, Idx: IVar("i")}
	y := FLoad{Buf: 1, Idx: IVar("i")}
	lanes := func(k int, lane func(u int) []Stmt) []Stmt {
		var body []Stmt
		for u := 0; u < k; u++ {
			body = append(body, SSetInt{Var: "f", Val: Add(Mul(IVar("i"), IConst(k)), IConst(u))})
			body = append(body, lane(u)...)
		}
		return body
	}
	cases := []struct {
		name   string
		k      *Kernel
		dims   [][]int
		supers int
	}{
		{"layernorm stitch", layerNormStitch(), [][]int{{1, 32}, {3, 32}}, 8},
		{"two stores", withExtent(stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FUn{Fn: "exp", X: x}},
			SStore{Buf: 2, Idx: Add(IVar("i"), IConst(1)), Val: FBin{Fn: "mul", A: x, B: FConst(3)}},
		}), nMinus1), [][]int{{1}, {9}}, 2},
		{"store and fold of another expression", accKernel([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FUn{Fn: "tanh", X: x}},
			SSet{Var: "acc", Val: FBin{Fn: "max", A: FLocal("acc"), B: FBin{Fn: "mul", A: x, B: x}}},
		}), [][]int{{1}, {9}}, 3},
		{"stored local read back", stride1Row([]Stmt{
			SSet{Var: "t", Val: FBin{Fn: "sub", A: x, B: FConst(1)}},
			SStore{Buf: 1, Idx: IVar("i"), Val: FLocal("t")},
			SStore{Buf: 2, Idx: IVar("i"), Val: FUn{Fn: "gelu", X: FLocal("t")}},
		}), [][]int{{1}, {9}}, 2},
		{"deep chain with hoisted scalar math", stride1Row([]Stmt{
			SStore{Buf: 2, Idx: IVar("i"), Val: FBin{Fn: "add",
				A: FUn{Fn: "exp", X: FBin{Fn: "sub", A: FBin{Fn: "mul", A: x, B: y}, B: FLoad{Buf: 1, Idx: IConst(0)}}},
				B: FUn{Fn: "sqrt", X: FBin{Fn: "add", A: FConst(2), B: FLoad{Buf: 0, Idx: IConst(1)}}}}},
		}), [][]int{{2}, {9}}, 3},
		{"scalar-left inner op", stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FBin{Fn: "mul", A: FBin{Fn: "sub", A: FConst(2), B: x}, B: FConst(3)}},
		}), [][]int{{9}}, 2},
		{"unrolled lanes", &Kernel{Name: "vec2", NumBuffers: 3, DimNames: []string{"n"},
			Body: []Stmt{SLoop{Var: "i", Extent: nHalf, Flags: LoopStride1, Body: lanes(2, func(int) []Stmt {
				return []Stmt{
					SSet{Var: "v", Val: FUn{Fn: "relu", X: FLoad{Buf: 0, Idx: IVar("f")}}},
					SStore{Buf: 1, Idx: IVar("f"), Val: FLocal("v")},
					SStore{Buf: 2, Idx: IVar("f"), Val: FBin{Fn: "add", A: FLocal("v"), B: FLoad{Buf: 0, Idx: IVar("f")}}},
				}
			})}}}, [][]int{{1}, {4}, {9}}, 2},
		// 1300 elements with temporaries: three chunks of splitChunk, the
		// fold carried across them in ascending order.
		{"chunked flat sweep", accKernel([]Stmt{
			SSet{Var: "t", Val: FUn{Fn: "exp", X: FBin{Fn: "mul", A: x, B: FConst(0.5)}}},
			SStore{Buf: 2, Idx: IVar("i"), Val: FBin{Fn: "mul", A: FLocal("t"), B: y}},
			SSet{Var: "acc", Val: FBin{Fn: "add", A: FLocal("acc"), B: FBin{Fn: "sub", A: FLocal("t"), B: y}}},
		}), [][]int{{1}, {511}, {512}, {1300}}, 4},
		// A strided gather into a temporary: each chunk starts its source
		// at chunk offset * stride.
		{"chunked gather", withExtent(stride1Row([]Stmt{
			SStore{Buf: 2, Idx: IVar("i"), Val: FBin{Fn: "add",
				A: FUn{Fn: "exp", X: FLoad{Buf: 0, Idx: Mul(IVar("i"), IConst(2))}}, B: y}},
		}), nHalf), [][]int{{9}, {1300}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := tc.k.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if got := cp.PerElementSweeps(); len(got) != 0 {
				t.Fatalf("sweeps left per-element: %v\n%s", got, cp.Disassemble())
			}
			if cp.Superinstructions() != tc.supers {
				t.Fatalf("%d row ops, want %d:\n%s", cp.Superinstructions(), tc.supers, cp.Disassemble())
			}
			for s, dims := range tc.dims {
				if msg := checkDifferential(tc.k, dims, int64(s+1)); msg != "" {
					t.Fatalf("dims %v: %s", dims, msg)
				}
			}
		})
	}
}

// TestSplitRejections pins each rule that keeps a sweep per-element: the
// reported rule, no row op, and interpreter-identical results.
func TestSplitRejections(t *testing.T) {
	x := FLoad{Buf: 0, Idx: IVar("i")}
	cases := []struct {
		name string
		k    *Kernel
		why  string
	}{
		{"load of the stored buffer, same index", stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FUn{Fn: "exp", X: x}},
			SStore{Buf: 2, Idx: IVar("i"), Val: FUn{Fn: "neg", X: FLoad{Buf: 1, Idx: IVar("i")}}},
		}), "load and store of one buffer"},
		{"load of the stored buffer, shifted index", withExtent(stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FUn{Fn: "exp", X: x}},
			SStore{Buf: 2, Idx: IVar("i"), Val: FUn{Fn: "neg", X: FLoad{Buf: 1, Idx: Add(IVar("i"), IConst(1))}}},
		}), nMinus1), "load and store of one buffer"},
		{"buffer stored twice", withExtent(stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FUn{Fn: "exp", X: x}},
			SStore{Buf: 1, Idx: Add(IVar("i"), IConst(1)), Val: x},
		}), nMinus1), "buffer stored twice"},
		{"local read after the loop", func() *Kernel {
			k := stride1Row([]Stmt{
				SSet{Var: "t", Val: FUn{Fn: "exp", X: x}},
				SStore{Buf: 1, Idx: IVar("i"), Val: FLocal("t")},
				SStore{Buf: 2, Idx: IVar("i"), Val: FBin{Fn: "add", A: FLocal("t"), B: x}},
			})
			k.Body = []Stmt{
				SSet{Var: "t", Val: FConst(7)},
				k.Body[0],
				SStore{Buf: 0, Idx: IConst(0), Val: FLocal("t")},
			}
			return k
		}(), "local read after the loop"},
		{"accumulator read in the sweep", accKernel([]Stmt{
			SSet{Var: "acc", Val: FBin{Fn: "add", A: FLocal("acc"), B: x}},
			SStore{Buf: 1, Idx: IVar("i"), Val: FBin{Fn: "mul", A: x, B: FLocal("acc")}},
		}), "accumulator read in the sweep"},
		{"loop-carried local", func() *Kernel {
			k := stride1Row([]Stmt{
				SStore{Buf: 1, Idx: IVar("i"), Val: FLocal("t")},
				SSet{Var: "t", Val: FUn{Fn: "exp", X: x}},
				SStore{Buf: 2, Idx: IVar("i"), Val: FLocal("t")},
			})
			k.Body = append([]Stmt{SSet{Var: "t", Val: FConst(1)}}, k.Body...)
			return k
		}(), "local read before its definition"},
		{"select", stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FSel{P: x, A: FConst(1), B: FConst(2)}},
			SStore{Buf: 2, Idx: IVar("i"), Val: x},
		}), "control flow"},
		{"compare", stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FCmp{Op: "gt", A: x, B: FConst(0)}},
			SStore{Buf: 2, Idx: IVar("i"), Val: x},
		}), "no row form"},
		{"non-affine index", stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IBin{Op: IMod, A: IVar("i"), B: IDim("n")}, Val: x},
			SStore{Buf: 2, Idx: IVar("i"), Val: x},
		}), "index not unit-stride affine"},
		{"lanes differ", withExtent(stride1Row([]Stmt{
			SSetInt{Var: "f", Val: Mul(IVar("i"), IConst(2))},
			SStore{Buf: 1, Idx: IVar("f"), Val: FUn{Fn: "exp", X: FLoad{Buf: 0, Idx: IVar("f")}}},
			SSetInt{Var: "f", Val: Add(Mul(IVar("i"), IConst(2)), IConst(1))},
			SStore{Buf: 1, Idx: IVar("f"), Val: FUn{Fn: "neg", X: FLoad{Buf: 0, Idx: IVar("f")}}},
		}), nHalf), "unrolled lanes differ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := tc.k.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if got := cp.PerElementSweeps(); !reflect.DeepEqual(got, []string{tc.why}) {
				t.Fatalf("per-element sweeps %q, want [%q]\n%s", got, tc.why, cp.Disassemble())
			}
			if strings.Contains(cp.Disassemble(), "row.") {
				t.Fatalf("rejected sweep emitted a row op:\n%s", cp.Disassemble())
			}
			for _, n := range []int{0, 1, 9} {
				if msg := checkDifferential(tc.k, []int{n}, 3); msg != "" {
					t.Fatalf("n=%d: %s", n, msg)
				}
			}
		})
	}
}
