package kir

import (
	"strings"
	"testing"
)

// super_test pins the row ops: each row kind must collapse
// its canonical loop shape into a single instruction, wrong hints must fall
// back to generic code without changing results, and unrolled vec4 lanes
// must fold back into one whole-row op.

func stride1Row(body []Stmt) *Kernel {
	return &Kernel{
		Name:       "row",
		NumBuffers: 3,
		DimNames:   []string{"n"},
		Body: []Stmt{
			SLoop{Var: "i", Extent: IDim("n"), Flags: LoopStride1, Body: body},
		},
	}
}

func requireSuper(t *testing.T, k *Kernel, wantOp string) *Compiled {
	t.Helper()
	cp, err := k.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Superinstructions() == 0 {
		t.Fatalf("no superinstruction emitted; disassembly:\n%s", cp.Disassemble())
	}
	if dis := cp.Disassemble(); !strings.Contains(dis, wantOp) {
		t.Fatalf("disassembly missing %q:\n%s", wantOp, dis)
	}
	return cp
}

func TestSuperinstructionMatching(t *testing.T) {
	load := FLoad{Buf: 0, Idx: IVar("i")}
	cases := []struct {
		name string
		body []Stmt
		op   string
	}{
		{"copy", []Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: load},
		}, "row.copy"},
		{"map1", []Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FUn{Fn: "exp", X: load}},
		}, "row.map1"},
		{"zip", []Stmt{
			SStore{Buf: 2, Idx: IVar("i"),
				Val: FBin{Fn: "add", A: load, B: FLoad{Buf: 1, Idx: IVar("i")}}},
		}, "row.zip"},
		{"zipsr", []Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FBin{Fn: "mul", A: load, B: FConst(2)}},
		}, "row.zipsr"},
		{"zipsl", []Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FBin{Fn: "sub", A: FConst(2), B: load}},
		}, "row.zipsl"},
		{"mapzips via local", []Stmt{
			SSet{Var: "t", Val: FBin{Fn: "sub", A: load, B: FConst(1)}},
			SStore{Buf: 1, Idx: IVar("i"), Val: FUn{Fn: "exp", X: FLocal("t")}},
		}, "row.mapzipsr"},
		{"zip2s", []Stmt{
			SStore{Buf: 1, Idx: IVar("i"),
				Val: FBin{Fn: "max", A: FBin{Fn: "mul", A: load, B: FConst(3)}, B: FConst(0)}},
		}, "row.zip2s"},
		{"same-buffer copy demotes to map1 id", []Stmt{
			SStore{Buf: 0, Idx: Add(IVar("i"), IConst(0)), Val: load},
		}, "row.map1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireSuper(t, stride1Row(tc.body), tc.op)
		})
	}
}

func TestSuperinstructionReduce(t *testing.T) {
	k := &Kernel{
		Name:       "rowsum",
		NumBuffers: 2,
		DimNames:   []string{"r", "l"},
		Body: []Stmt{
			SLoop{Var: "i", Extent: IDim("r"), Body: []Stmt{
				SSet{Var: "acc", Val: FConst(0)},
				SLoop{Var: "j", Extent: IDim("l"), Flags: LoopStride1, Body: []Stmt{
					SSet{Var: "acc", Val: FBin{Fn: "add", A: FLocal("acc"),
						B: FLoad{Buf: 0, Idx: Add(Mul(IVar("i"), IDim("l")), IVar("j"))}}},
				}},
				SStore{Buf: 1, Idx: IVar("i"), Val: FLocal("acc")},
			}},
		},
	}
	requireSuper(t, k, "row.reduce")
}

// TestSuperinstructionUnrolled checks de-unrolling: a 4-lane unrolled body
// (the shape the vec4 specialization lowers to) folds back into one row op
// covering 4*extent elements.
func TestSuperinstructionUnrolled(t *testing.T) {
	lane := func(u int) []Stmt {
		return []Stmt{
			SSetInt{Var: "f", Val: Add(Mul(IVar("i"), IConst(4)), IConst(u))},
			SStore{Buf: 1, Idx: IVar("f"),
				Val: FBin{Fn: "add", A: FLoad{Buf: 0, Idx: IVar("f")}, B: FConst(1)}},
		}
	}
	var body []Stmt
	for u := 0; u < 4; u++ {
		body = append(body, lane(u)...)
	}
	k := &Kernel{
		Name:       "vec4",
		NumBuffers: 2,
		DimNames:   []string{"q"}, // extent in groups of 4
		Body: []Stmt{
			SLoop{Var: "i", Extent: IDim("q"), Flags: LoopStride1, Body: body},
		},
	}
	cp := requireSuper(t, k, "row.zipsr")
	// 3 groups of 4 → 12 elements processed by the single row op.
	in := make([]float32, 12)
	out := make([]float32, 12)
	for j := range in {
		in[j] = float32(j)
	}
	if err := cp.Run([][]float32{in, out}, []int{3}); err != nil {
		t.Fatal(err)
	}
	for j := range out {
		if out[j] != float32(j)+1 {
			t.Fatalf("out[%d] = %v, want %v", j, out[j], float32(j)+1)
		}
	}
}

// TestSuperinstructionWrongHintFallback feeds stride-1-flagged loops whose
// bodies have no row form; the sweep compiler must reject them (hints
// are advisory, structure is authoritative) and the generic loop must still
// produce interpreter-identical results.
func TestSuperinstructionWrongHintFallback(t *testing.T) {
	cases := []struct {
		name string
		body []Stmt
	}{
		{"non-affine index", []Stmt{
			SStore{Buf: 1, Idx: IBin{Op: IMod, A: Mul(IVar("i"), IConst(2)), B: IDim("n")},
				Val: FLoad{Buf: 0, Idx: IVar("i")}},
		}},
		{"local escapes loop", []Stmt{
			SSet{Var: "esc", Val: FLoad{Buf: 0, Idx: IVar("i")}},
			SStore{Buf: 1, Idx: IVar("i"), Val: FLocal("esc")},
			SStore{Buf: 2, Idx: IVar("i"), Val: FLocal("esc")},
		}},
		// Two stores to different buffers split into two row ops
		// (sweep_test.go); two stores to one buffer, or a store to a
		// buffer the body also loads, must stay per-element.
		{"two stores", []Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FLoad{Buf: 0, Idx: IVar("i")}},
			SStore{Buf: 1, Idx: IVar("i"), Val: FConst(1)},
		}},
		{"load and store of one buffer", []Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FLoad{Buf: 0, Idx: IVar("i")}},
			SStore{Buf: 0, Idx: IVar("i"), Val: FConst(1)},
		}},
		{"select body", []Stmt{
			SStore{Buf: 1, Idx: IVar("i"),
				Val: FSel{P: FCmp{Op: "gt", A: FLoad{Buf: 0, Idx: IVar("i")}, B: FConst(0)},
					A: FConst(1), B: FConst(-1)}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := stride1Row(tc.body)
			cp, err := k.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if tc.name != "local escapes loop" && strings.Contains(cp.Disassemble(), "row.") {
				// (the escape case may legitimately match nothing or part;
				// the others must not emit any row op)
				t.Fatalf("unexpected superinstruction:\n%s", cp.Disassemble())
			}
			if msg := checkDifferential(k, []int{17}, 42); msg != "" {
				t.Fatalf("fallback diverged: %s", msg)
			}
		})
	}
}

// TestSuperinstructionNewKinds pins the PR 8 additions: vector-vector
// un∘bin fusion, row fills, strided gathers with symbolic strides, and
// buffer-loaded scalars — each must collapse to its row op AND stay
// bit-identical between interpreter and bytecode.
func TestSuperinstructionNewKinds(t *testing.T) {
	load := FLoad{Buf: 0, Idx: IVar("i")}
	// gathsRow loops i over m with buffers sized n*m so strided reads
	// (i*2, i*n+1) stay in bounds.
	gathsRow := func(body []Stmt) *Kernel {
		return &Kernel{
			Name:       "gaths",
			NumBuffers: 3,
			DimNames:   []string{"n", "m"},
			Body: []Stmt{
				SLoop{Var: "i", Extent: IDim("m"), Flags: LoopStride1, Body: body},
			},
		}
	}
	cases := []struct {
		name string
		k    *Kernel
		dims []int
		op   string
	}{
		{"mapzip", stride1Row([]Stmt{
			SStore{Buf: 2, Idx: IVar("i"),
				Val: FUn{Fn: "relu", X: FBin{Fn: "add", A: load, B: FLoad{Buf: 1, Idx: IVar("i")}}}},
		}), []int{13}, "row.mapzip"},
		{"fill const", stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FConst(3)},
		}), []int{13}, "row.fill"},
		{"fill from invariant load", stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: FLoad{Buf: 0, Idx: IConst(0)}},
		}), []int{13}, "row.fill"},
		{"gaths const stride", gathsRow([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"),
				Val: FLoad{Buf: 0, Idx: Mul(IVar("i"), IConst(2))}},
		}), []int{13, 5}, "row.gaths"},
		{"gaths symbolic stride", gathsRow([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"),
				Val: FLoad{Buf: 0, Idx: Add(Mul(IVar("i"), IDim("n")), IConst(1))}},
		}), []int{13, 5}, "row.gaths"},
		{"gaths unary", gathsRow([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"),
				Val: FUn{Fn: "exp", X: FLoad{Buf: 0, Idx: Mul(IVar("i"), IDim("n"))}}},
		}), []int{13, 5}, "row.gaths"},
		{"zipsr scalar from buffer", stride1Row([]Stmt{
			SStore{Buf: 1, Idx: IVar("i"),
				Val: FBin{Fn: "add", A: load, B: FLoad{Buf: 2, Idx: IConst(0)}}},
		}), []int{13}, "row.zipsr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireSuper(t, tc.k, tc.op)
			if msg := checkDifferential(tc.k, tc.dims, 7); msg != "" {
				t.Fatalf("diverged: %s", msg)
			}
		})
	}
	// A "scalar" load from the row's own destination buffer is not loop
	// invariant once the row starts storing — must NOT match any row op.
	alias := stride1Row([]Stmt{
		SStore{Buf: 1, Idx: IVar("i"),
			Val: FBin{Fn: "add", A: load, B: FLoad{Buf: 1, Idx: IConst(0)}}},
	})
	cp, err := alias.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cp.Disassemble(), "row.") {
		t.Fatalf("aliasing scalar load matched a row op:\n%s", cp.Disassemble())
	}
	if msg := checkDifferential(alias, []int{13}, 7); msg != "" {
		t.Fatalf("alias fallback diverged: %s", msg)
	}
}

// TestSuperinstructionStoreReduce pins the fused store+reduce sweep
// (softmax's exp(x-m) sweep that also accumulates the sum).
func TestSuperinstructionStoreReduce(t *testing.T) {
	load := FLoad{Buf: 0, Idx: IVar("i")}
	fused := func(body []Stmt) *Kernel {
		k := stride1Row(body)
		k.Body = []Stmt{
			SSet{Var: "acc", Val: FConst(0)},
			k.Body[0],
			SStore{Buf: 2, Idx: IConst(0), Val: FLocal("acc")},
		}
		return k
	}
	step := func(val Expr) []Stmt {
		return []Stmt{
			SStore{Buf: 1, Idx: IVar("i"), Val: val},
			SSet{Var: "acc", Val: FBin{Fn: "add", A: FLocal("acc"), B: val}},
		}
	}
	cases := []struct {
		name string
		val  Expr
		op   string
	}{
		{"softmax sweep", FUn{Fn: "exp", X: FBin{Fn: "sub", A: load, B: FConst(1)}}, "row.fredsr"},
		{"bin none", FUn{Fn: "exp", X: load}, "row.fredsr"},
		{"plain copy accumulate", load, "row.fredsr"},
		{"scalar left", FBin{Fn: "sub", A: FConst(5), B: load}, "row.fredsl"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := fused(step(tc.val))
			requireSuper(t, k, tc.op)
			if msg := checkDifferential(k, []int{13}, 11); msg != "" {
				t.Fatalf("diverged: %s", msg)
			}
		})
	}
	t.Run("rejections", func(t *testing.T) {
		rejects := []struct {
			name string
			body []Stmt
		}{
			// The store writes the buffer the vector load reads: the
			// interpreter re-evaluates the element expression after
			// the store, so fusing would change semantics.
			{"store aliases load", func() []Stmt {
				v := FUn{Fn: "exp", X: FLoad{Buf: 0, Idx: IVar("i")}}
				return []Stmt{
					SStore{Buf: 0, Idx: IVar("i"), Val: v},
					SSet{Var: "acc", Val: FBin{Fn: "add", A: FLocal("acc"), B: v}},
				}
			}()},
			// Accumulator update folds a DIFFERENT expression than the
			// stored value.
			{"mismatched accumulate", []Stmt{
				SStore{Buf: 1, Idx: IVar("i"), Val: FUn{Fn: "exp", X: load}},
				SSet{Var: "acc", Val: FBin{Fn: "add", A: FLocal("acc"), B: load}},
			}},
		}
		for _, rc := range rejects {
			k := fused(rc.body)
			cp, err := k.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(cp.Disassemble(), "row.fred") {
				t.Fatalf("%s: fused despite hazard:\n%s", rc.name, cp.Disassemble())
			}
			if msg := checkDifferential(k, []int{13}, 11); msg != "" {
				t.Fatalf("%s: fallback diverged: %s", rc.name, msg)
			}
		}
	})
}
