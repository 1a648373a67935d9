package kir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// addKernel builds out[i] = a[i] + b[i] over a runtime dim n.
func addKernel() *Kernel {
	return &Kernel{
		Name:       "add",
		NumBuffers: 3,
		DimNames:   []string{"n"},
		Body: []Stmt{
			SLoop{Var: "i", Extent: IDim("n"), Body: []Stmt{
				SStore{Buf: 2, Idx: IVar("i"),
					Val: FBin{Fn: "add", A: FLoad{Buf: 0, Idx: IVar("i")}, B: FLoad{Buf: 1, Idx: IVar("i")}}},
			}},
		},
	}
}

func TestAddKernelArbitraryDims(t *testing.T) {
	cp := addKernel().MustFinalize()
	for _, n := range []int{0, 1, 7, 128} {
		a := make([]float32, n)
		b := make([]float32, n)
		out := make([]float32, n)
		for i := range a {
			a[i] = float32(i)
			b[i] = 2 * float32(i)
		}
		if err := cp.Run([][]float32{a, b, out}, []int{n}); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != 3*float32(i) {
				t.Fatalf("n=%d out[%d]=%v", n, i, out[i])
			}
		}
	}
}

func TestRowSumKernel(t *testing.T) {
	// out[r] = sum_j in[r*L + j], dims (R, L) runtime.
	k := &Kernel{
		Name:       "rowsum",
		NumBuffers: 2,
		DimNames:   []string{"R", "L"},
		Body: []Stmt{
			SLoop{Var: "r", Extent: IDim("R"), Body: []Stmt{
				SSet{Var: "acc", Val: FConst(0)},
				SLoop{Var: "j", Extent: IDim("L"), Body: []Stmt{
					SSet{Var: "acc", Val: FBin{Fn: "add", A: FLocal("acc"),
						B: FLoad{Buf: 0, Idx: Add(Mul(IVar("r"), IDim("L")), IVar("j"))}}},
				}},
				SStore{Buf: 1, Idx: IVar("r"), Val: FLocal("acc")},
			}},
		},
	}
	cp := k.MustFinalize()
	in := []float32{1, 2, 3, 4, 5, 6}
	out := make([]float32, 2)
	if err := cp.Run([][]float32{in, out}, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if out[0] != 6 || out[1] != 15 {
		t.Fatalf("out=%v", out)
	}
	// Same kernel, different shape — no recompilation.
	out6 := make([]float32, 6)
	if err := cp.Run([][]float32{in, out6}, []int{6, 1}); err != nil {
		t.Fatal(err)
	}
	for i, v := range in {
		if out6[i] != v {
			t.Fatalf("out6=%v", out6)
		}
	}
}

func TestCompareSelectCast(t *testing.T) {
	// out[i] = i < 2 ? exp(a[i]) : -1
	k := &Kernel{
		Name:       "sel",
		NumBuffers: 2,
		DimNames:   []string{"n"},
		Body: []Stmt{
			SLoop{Var: "i", Extent: IDim("n"), Body: []Stmt{
				SStore{Buf: 1, Idx: IVar("i"), Val: FSel{
					P: FCmp{Op: "lt", A: FCastInt{X: IVar("i")}, B: FConst(2)},
					A: FUn{Fn: "exp", X: FLoad{Buf: 0, Idx: IVar("i")}},
					B: FConst(-1),
				}},
			}},
		},
	}
	cp := k.MustFinalize()
	in := []float32{0, 1, 2, 3}
	out := make([]float32, 4)
	if err := cp.Run([][]float32{in, out}, []int{4}); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || math.Abs(float64(out[1])-math.E) > 1e-5 || out[2] != -1 || out[3] != -1 {
		t.Fatalf("out=%v", out)
	}
}

func TestIndexArithmeticFolding(t *testing.T) {
	if Mul(IConst(2), IConst(3)) != IConst(6) {
		t.Fatal("const mul folding")
	}
	if Mul(IConst(1), IVar("x")) != IVar("x") {
		t.Fatal("identity mul folding")
	}
	if Add(IConst(0), IVar("x")) != IVar("x") {
		t.Fatal("identity add folding")
	}
	if Div(IVar("x"), IConst(1)) != IVar("x") {
		t.Fatal("identity div folding")
	}
}

func TestFinalizeRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		k    *Kernel
	}{
		{"undefined var", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IVar("nope"), Val: FConst(0)},
		}}},
		{"buffer oob", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 3, Idx: IConst(0), Val: FConst(0)},
		}}},
		{"unknown dim", &Kernel{NumBuffers: 1, Body: []Stmt{
			SLoop{Var: "i", Extent: IDim("zz"), Body: nil},
		}}},
		{"unknown fn", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IConst(0), Val: FUn{Fn: "zzz", X: FConst(1)}},
		}}},
		{"undefined local", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IConst(0), Val: FLocal("acc")},
		}}},
		{"unknown binary fn", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IConst(0), Val: FBin{Fn: "zzz", A: FLoad{Buf: 0, Idx: IConst(0)}, B: FConst(1)}},
		}}},
		{"unknown compare op", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IConst(0), Val: FCmp{Op: "zz", A: FConst(0), B: FConst(1)}},
		}}},
		{"unknown int op", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IBin{Op: IntOp(99), A: IConst(0), B: IConst(0)}, Val: FConst(0)},
		}}},
		{"unknown dim in index", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IDim("zz"), Val: FConst(0)},
		}}},
		{"duplicate dim", &Kernel{NumBuffers: 1, DimNames: []string{"n", "n"}}},
		{"load buffer oob", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IConst(0), Val: FLoad{Buf: 1, Idx: IConst(0)}},
		}}},
		{"f32 local read before its definition in the same block", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IConst(0), Val: FLocal("x")},
			SSet{Var: "x", Val: FConst(1)},
		}}},
		{"int var read before its definition in the same block", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IVar("x"), Val: FConst(0)},
			SSetInt{Var: "x", Val: IConst(0)},
		}}},
		// The register exists (slots are pre-assigned kernel-wide) but the
		// only definition sits in a later inner loop.
		{"local defined only inside a later inner loop", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IConst(0), Val: FLocal("x")},
			SLoop{Var: "i", Extent: IConst(2), Body: []Stmt{SSet{Var: "x", Val: FConst(1)}}},
		}}},
		{"loop extent reads its own variable", &Kernel{NumBuffers: 1, Body: []Stmt{
			SStore{Buf: 0, Idx: IConst(0), Val: FConst(0)},
			SLoop{Var: "i", Extent: IVar("i"), Body: nil},
		}}},
		{"f32 local read as int var", &Kernel{NumBuffers: 1, Body: []Stmt{
			SSet{Var: "x", Val: FConst(1)},
			SStore{Buf: 0, Idx: IVar("x"), Val: FConst(0)},
		}}},
		{"int var read as f32 local", &Kernel{NumBuffers: 1, Body: []Stmt{
			SSetInt{Var: "x", Val: IConst(0)},
			SStore{Buf: 0, Idx: IConst(0), Val: FLocal("x")},
		}}},
	}
	for _, c := range cases {
		if _, err := c.k.Finalize(); err == nil {
			t.Errorf("%s: expected finalize error", c.name)
		}
	}
}

func TestRunValidatesArity(t *testing.T) {
	cp := addKernel().MustFinalize()
	if err := cp.Run([][]float32{{1}}, []int{1}); err == nil {
		t.Fatal("buffer arity must be checked")
	}
	if err := cp.Run([][]float32{{1}, {1}, {1}}, nil); err == nil {
		t.Fatal("dim arity must be checked")
	}
}

func TestStringRendering(t *testing.T) {
	e := FBin{Fn: "add", A: FLoad{Buf: 0, Idx: Add(Mul(IVar("r"), IDim("L")), IVar("j"))}, B: FConst(1)}
	got := e.String()
	want := "add(b0[((r * $L) + j)], 1)"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// Property: the shape-generic add kernel agrees with Go addition for
// arbitrary sizes and contents.
func TestAddKernelProperty(t *testing.T) {
	cp := addKernel().MustFinalize()
	f := func(xs []float32) bool {
		n := len(xs)
		b := make([]float32, n)
		out := make([]float32, n)
		for i := range b {
			b[i] = float32(i) * 0.5
		}
		if err := cp.Run([][]float32{xs, b, out}, []int{n}); err != nil {
			return false
		}
		for i := range out {
			if out[i] != xs[i]+b[i] && !(math.IsNaN(float64(out[i])) && math.IsNaN(float64(xs[i]+b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelDisassembly(t *testing.T) {
	k := addKernel()
	src := k.String()
	for _, want := range []string{"kernel add(n) buffers=3", "for i in 0..$n", "b2[i] = add(b0[i], b1[i])"} {
		if !strings.Contains(src, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, src)
		}
	}
	if cp := k.MustFinalize(); cp.Source() != src {
		t.Fatal("Compiled.Source must match the kernel disassembly")
	}
}

func TestConstantFoldingInCompiler(t *testing.T) {
	// exp(1)+2 folds at Finalize; the kernel stores a constant.
	k := &Kernel{
		Name:       "fold",
		NumBuffers: 1,
		Body: []Stmt{
			SStore{Buf: 0, Idx: IConst(0), Val: FBin{Fn: "add",
				A: FUn{Fn: "exp", X: FConst(1)}, B: FConst(2)}},
		},
	}
	out := make([]float32, 1)
	if err := k.MustFinalize().Run([][]float32{out}, nil); err != nil {
		t.Fatal(err)
	}
	want := float32(math.E) + 2
	if math.Abs(float64(out[0]-want)) > 1e-5 {
		t.Fatalf("folded value %v, want %v", out[0], want)
	}
}
