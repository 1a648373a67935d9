package graph

import (
	"testing"

	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// fuzzSeedGraphs are small builder graphs covering the text format's
// features: constants, range and divisibility facts, product, sum and
// affine derived dims, and the attribute-carrying ops.
func fuzzSeedGraphs() []*Graph {
	mlp := New("mlp")
	b := mlp.Ctx.NewDim("B")
	mlp.Ctx.DeclareRange(b, 1, 64)
	x := mlp.Parameter("x", tensor.F32, symshape.Shape{b, mlp.Ctx.StaticDim(4)})
	w := mlp.Constant(tensor.RandN(tensor.NewRNG(1), 0.5, 4, 3))
	mlp.SetOutputs(mlp.Relu(mlp.Add(mlp.MatMul(x, w), mlp.ConstScalar(0.5))))

	derived := New("derived")
	b, s := derived.Ctx.NewDim("B"), derived.Ctx.NewDim("S")
	derived.Ctx.DeclareDivisible(s, 2)
	y := derived.Parameter("y", tensor.F32, symshape.Shape{b, s, derived.Ctx.StaticDim(4)})
	merged := derived.MergeDims(y, 0, 2)
	cat := derived.Concat(0, merged, merged)
	red := derived.Sum(derived.Transpose(y, 0, 2, 1), []int{1}, false)
	derived.SetOutputs(derived.Exp(cat), red)

	conv := New("conv")
	b, s = conv.Ctx.NewDim("B"), conv.Ctx.NewDim("S")
	conv.Ctx.DeclareRange(s, 3, 32)
	ids := conv.Parameter("ids", tensor.I32, symshape.Shape{b, s})
	emb := conv.Gather(conv.Constant(tensor.RandN(tensor.NewRNG(2), 0.2, 8, 4)), ids)
	padded := conv.Pad(emb, []int{0, 1, 0}, []int{0, 2, 0})
	c := conv.Conv1D(padded, conv.Constant(tensor.RandN(tensor.NewRNG(3), 0.2, 3, 4, 4)))
	sel := conv.Select(conv.Compare(c, conv.ConstScalar(0), "gt"), c, conv.ConstScalar(-1))
	conv.SetOutputs(conv.Softmax(sel), conv.StaticSlice(padded, []int{0, 0, 1}, []int{1, 2, 2}))

	return []*Graph{mlp, derived, conv}
}

// FuzzParseText fuzzes the on-disk graph decoder (a model repository reads
// this text from disk). The parser must never panic; a graph it accepts must
// copy to a graph that writes the same text, that text must parse again,
// and rewritten in the other payload encoding it must parse to a graph
// that writes the same text once more.
func FuzzParseText(f *testing.F) {
	for _, g := range fuzzSeedGraphs() {
		f.Add(WriteText(g))
		f.Add(WriteTextDecimal(g))
	}
	f.Add(constText("bool[3]", b64Of(1, 0, 1)))
	f.Add(constText("i32[2]", b64Of(0xfe, 0xff, 0xff, 0xff, 7, 0, 0, 0)))
	f.Add(constText("f32[2]", b64Of(1, 0, 0xc0, 0x7f, 0, 0, 0, 0x80))) // NaN with payload, -0
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseText(src)
		if err != nil {
			return
		}
		text := WriteText(g)
		if got := WriteText(g.Copy()); got != text {
			t.Fatalf("copy writes different text:\n%s\nwant:\n%s", got, text)
		}
		p, err := ParseText(text)
		if err != nil {
			t.Fatalf("written text does not parse again: %v\n%s", err, text)
		}
		dec := WriteTextDecimal(g)
		q, err := ParseText(dec)
		if err != nil {
			t.Fatalf("decimal text does not parse: %v\n%s", err, dec)
		}
		if got, want := WriteTextDecimal(q), WriteTextDecimal(p); got != want {
			t.Fatalf("the two encodings parse to graphs writing different decimal text:\n%s\nwant:\n%s", got, want)
		}
		// Decimal spells every NaN "NaN", so NaN payload bits are the one
		// thing only the b64 form keeps.
		if got, want := WriteText(q), WriteText(p); got != want && !holdsNaN(g) {
			t.Fatalf("the two encodings parse to graphs writing different text:\n%s\nwant:\n%s", got, want)
		}
	})
}

func holdsNaN(g *Graph) bool {
	for _, n := range g.Nodes() {
		if n.Kind != OpConstant || n.Lit.DType() != tensor.F32 {
			continue
		}
		for _, v := range n.Lit.F32() {
			if v != v {
				return true
			}
		}
	}
	return false
}
