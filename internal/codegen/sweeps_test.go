package codegen

import (
	"fmt"
	"math"
	"testing"

	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/kir"
	"godisc/internal/models"
	"godisc/internal/opt"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// sweeps_test pins the lowering side of the row path: in-group duplicates
// are lowered once, and domain-suffix operands are indexed affinely in j,
// so every contiguous sweep reaches the bytecode compiler as row ops.

// stride1Sweeps returns the LoopStride1 loops of a kernel body.
func stride1Sweeps(ss []kir.Stmt) []kir.SLoop {
	var out []kir.SLoop
	for _, s := range ss {
		if l, ok := s.(kir.SLoop); ok {
			if l.Flags&kir.LoopStride1 != 0 {
				out = append(out, l)
			}
			out = append(out, stride1Sweeps(l.Body)...)
		}
	}
	return out
}

// requireRowOps checks that every variant of k runs its stride-1 sweeps as
// row ops and matches kir.Interpret bit for bit at the given dim values.
// Buffers are sized to the domain's element count, which bounds every
// operand of a fused group.
func requireRowOps(t *testing.T, ctx *symshape.Context, k *Kernel, vals map[string]int) {
	t.Helper()
	dims := make([]int, len(k.Dims))
	for i, d := range k.Dims {
		dims[i] = vals[ctx.Name(d)]
	}
	numel, rowLen := 1, 1
	for _, d := range k.Group.Domain {
		v, ok := ctx.StaticValue(d)
		if !ok {
			v = int64(vals[ctx.Name(d)])
		}
		numel *= int(v)
		rowLen = int(v)
	}
	r := tensor.NewRNG(5)
	for _, v := range k.Variants {
		if got := v.Code.PerElementSweeps(); len(got) != 0 {
			t.Fatalf("%s/%s: sweeps left per-element: %v\n%s", k.Name, v.Name, got, v.Code.Source())
		}
		nb := v.Code.AST().NumBuffers
		bufs := make([][]float32, nb)
		for i := range bufs {
			size := numel
			if i >= nb-k.ScratchRows {
				size = rowLen
			}
			bufs[i] = tensor.RandN(r, 1, size).F32()
		}
		want := make([][]float32, nb)
		for i := range bufs {
			want[i] = append([]float32(nil), bufs[i]...)
		}
		if err := kir.Interpret(v.Code.AST(), want, dims); err != nil {
			t.Fatal(err)
		}
		if err := v.Code.Run(bufs, dims); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if math.Float32bits(bufs[i][j]) != math.Float32bits(want[i][j]) {
					t.Fatalf("%s/%s: buf %d[%d]: vm %v != interpreter %v\n%s", k.Name, v.Name, i, j,
						bufs[i][j], want[i][j], v.Code.Disassemble())
				}
			}
		}
	}
}

// TestBertLayerNormLowersEachValueOnce: DuplicateProducers gives each
// consumer of the residual add and of x-mean its own clone, and the clones
// land in the same stitched layernorm group. Each value must be computed
// once per sweep, and every sweep must run as row ops.
func TestBertLayerNormLowersEachValueOnce(t *testing.T) {
	m, err := models.ByName("bert")
	if err != nil {
		t.Fatal(err)
	}
	g := m.Build()
	if _, err := opt.Default().Run(g); err != nil {
		t.Fatal(err)
	}
	plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	layernorms := 0
	for _, grp := range plan.Groups {
		if grp.Kind == fusion.KLibrary || grp.Reduces == 0 {
			continue
		}
		rsqrt := false
		for _, n := range grp.Nodes {
			rsqrt = rsqrt || n.Kind == graph.OpRsqrt
		}
		if !rsqrt {
			continue
		}
		layernorms++
		k, err := Lower(g.Ctx, grp, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sweeps := stride1Sweeps(k.Variants[0].Code.AST().Body)
		if len(sweeps) != 3 {
			t.Fatalf("%s: %d sweeps, want 3", k.Name, len(sweeps))
		}
		for p, sw := range sweeps {
			seen := map[string]string{}
			for _, s := range sw.Body {
				set, ok := s.(kir.SSet)
				if !ok {
					continue
				}
				val := set.Val.String()
				if prev, dup := seen[val]; dup {
					t.Errorf("%s pass %d: %s and %s both compute %s", k.Name, p, prev, set.Var, val)
				}
				seen[val] = set.Var
			}
		}
		requireRowOps(t, g.Ctx, k, map[string]int{"B": 2, "S": 5})
	}
	if layernorms != 5 {
		t.Fatalf("bert has %d stitched layernorm groups, want 5", layernorms)
	}
}

// TestRowKernelSuffixOperandsAffine: operands broadcast over leading domain
// axes — a [H] gamma and a [S,H] table — are indexed j and rb2 + j (the
// row's base in the table), not flat % K.
func TestRowKernelSuffixOperandsAffine(t *testing.T) {
	g := graph.New("t")
	b := g.Ctx.NewDim("B")
	s := g.Ctx.NewDim("S")
	h := g.Ctx.StaticDim(8)
	x := g.Parameter("x", tensor.F32, symshape.Shape{b, s, h})
	pos := g.Parameter("pos", tensor.F32, symshape.Shape{s, h})
	gamma := g.Parameter("gamma", tensor.F32, symshape.Shape{h})
	y := g.Add(g.Mul(g.Softmax(g.Add(x, pos)), gamma), pos)
	g.SetOutputs(y)
	k := rowKernelFor(t, g)
	src := k.Variants[0].Code.Source()
	for _, sw := range stride1Sweeps(k.Variants[0].Code.AST().Body) {
		for _, st := range sw.Body {
			if str := fmt.Sprint(st); containsMod(st) {
				t.Fatalf("sweep statement %s indexes with %%:\n%s", str, src)
			}
		}
	}
	requireRowOps(t, g.Ctx, k, map[string]int{"B": 3, "S": 4})
}

// containsMod reports whether a statement's indices use IMod.
func containsMod(s kir.Stmt) bool {
	var intMod func(e kir.IntExpr) bool
	intMod = func(e kir.IntExpr) bool {
		switch e := e.(type) {
		case kir.IBin:
			return e.Op == kir.IMod || intMod(e.A) || intMod(e.B)
		case kir.ILoad:
			return intMod(e.Idx)
		}
		return false
	}
	var exprMod func(e kir.Expr) bool
	exprMod = func(e kir.Expr) bool {
		switch e := e.(type) {
		case kir.FLoad:
			return intMod(e.Idx)
		case kir.FUn:
			return exprMod(e.X)
		case kir.FBin:
			return exprMod(e.A) || exprMod(e.B)
		}
		return false
	}
	switch s := s.(type) {
	case kir.SStore:
		return intMod(s.Idx) || exprMod(s.Val)
	case kir.SSet:
		return exprMod(s.Val)
	case kir.SSetInt:
		return intMod(s.Val)
	}
	return false
}

// TestRowSplitReshapedBias: bert's QKV bias-add, a [H] bias added in
// [B,S,H] and reshaped to [B,S,nh,hd], addresses the domain's last two axes
// and lowers to the nested row form instead of the flat vec4 loop.
func TestRowSplitReshapedBias(t *testing.T) {
	g := graph.New("t")
	b := g.Ctx.NewDim("B")
	s := g.Ctx.NewDim("S")
	h := g.Ctx.StaticDim(8)
	x := g.Parameter("x", tensor.F32, symshape.Shape{b, s, h})
	bias := g.Parameter("bias", tensor.F32, symshape.Shape{h})
	y := g.Reshape(g.Add(x, bias), symshape.Shape{b, s, g.Ctx.StaticDim(2), g.Ctx.StaticDim(4)})
	g.SetOutputs(g.Exp(y))
	grp := planOne(t, g, fusion.DefaultConfig())
	k, err := Lower(g.Ctx, grp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Variants) != 1 || k.Variants[0].Name != "rows" {
		t.Fatalf("variants %d (first %q), want the single rows variant:\n%s",
			len(k.Variants), k.Variants[0].Name, k.Variants[0].Code.Source())
	}
	requireRowOps(t, g.Ctx, k, map[string]int{"B": 2, "S": 3})
}
