package graph_test

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"godisc/internal/device"
	"godisc/internal/exec"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/opt"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// build runs the default pipeline (optimize, plan, compile) on g, which
// it mutates.
func build(g *graph.Graph) (*exec.Executable, error) {
	if _, err := opt.Default().Run(g); err != nil {
		return nil, err
	}
	plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
	if err != nil {
		return nil, err
	}
	return exec.Compile(g, plan, device.A10(), exec.DefaultOptions())
}

func compileGraph(t testing.TB, g *graph.Graph) *exec.Executable {
	t.Helper()
	e, err := build(g)
	if err != nil {
		t.Fatalf("%s: compile: %v", g.Name, err)
	}
	return e
}

func encode(t testing.TB, e *exec.Executable) []byte {
	t.Helper()
	img, err := e.EncodeImage()
	if err != nil {
		t.Fatalf("%s: encode: %v", e.Graph.Name, err)
	}
	return img
}

func signature(g *graph.Graph) string {
	shapes := make([]symshape.Shape, len(g.Params))
	for i, p := range g.Params {
		shapes[i] = p.Shape
	}
	return g.Ctx.Signature(shapes)
}

func requireSameBits(t testing.TB, label string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i].F32(), want[i].F32()
		if len(g) != len(w) {
			t.Fatalf("%s: output %d has %d elements, want %d", label, i, len(g), len(w))
		}
		for j := range w {
			if math.Float32bits(g[j]) != math.Float32bits(w[j]) {
				t.Fatalf("%s: output %d element %d: %v, want %v", label, i, j, g[j], w[j])
			}
		}
	}
}

// zooPrototypes parses every zoo model's text once, as a model repository
// loads it.
func zooPrototypes(t testing.TB) (map[string]string, map[string]*graph.Graph) {
	t.Helper()
	texts := map[string]string{}
	protos := map[string]*graph.Graph{}
	for _, m := range models.Registry() {
		text := graph.WriteText(m.Build())
		g, err := graph.ParseText(text)
		if err != nil {
			t.Fatalf("%s: parse: %v", m.Name, err)
		}
		texts[m.Name], protos[m.Name] = text, g
	}
	return texts, protos
}

// TestCopyMatchesParse is the differential oracle for Graph.Copy: for every
// zoo model, compiling a copy of the parsed prototype must yield the same
// engine image, signature and output bits as compiling a fresh parse of
// the same text, and optimizing, compiling, running and evaluating copies
// must leave the prototype's text untouched (no write into a shared
// constant payload or shape context).
func TestCopyMatchesParse(t *testing.T) {
	texts, protos := zooPrototypes(t)
	for _, m := range models.Registry() {
		proto := protos[m.Name]
		before := graph.WriteText(proto)

		fresh, err := graph.ParseText(texts[m.Name])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := signature(proto.Copy()), signature(fresh); got != want {
			t.Fatalf("%s: copy signature %q, parse signature %q", m.Name, got, want)
		}
		ins := m.GenInputs(tensor.NewRNG(5), 2, min(9, m.MaxSeq))
		evalWant, err := graph.Evaluate(fresh, ins)
		if err != nil {
			t.Fatalf("%s: evaluate parsed: %v", m.Name, err)
		}
		ref := compileGraph(t, fresh)
		refImage := encode(t, ref)
		want, err := ref.Run(ins)
		if err != nil {
			t.Fatalf("%s: run parsed: %v", m.Name, err)
		}
		for i := 0; i < 3; i++ {
			c := proto.Copy()
			evalGot, err := graph.Evaluate(c, ins)
			if err != nil {
				t.Fatalf("%s: evaluate copy: %v", m.Name, err)
			}
			requireSameBits(t, m.Name+" (evaluate)", evalGot, evalWant)
			e := compileGraph(t, c)
			if !bytes.Equal(encode(t, e), refImage) {
				t.Fatalf("%s: copy %d encodes a different image than a fresh parse", m.Name, i)
			}
			got, err := e.Run(ins)
			if err != nil {
				t.Fatalf("%s: run copy: %v", m.Name, err)
			}
			requireSameBits(t, m.Name, got.Outputs, want.Outputs)
			optimized, err := graph.Evaluate(c, ins)
			if err != nil {
				t.Fatalf("%s: evaluate optimized copy: %v", m.Name, err)
			}
			for j := range evalWant {
				if err := tensor.AllClose(optimized[j], evalWant[j], 2e-4, 1e-4); err != nil {
					t.Fatalf("%s: optimized copy output %d: %v", m.Name, j, err)
				}
			}
		}
		if after := graph.WriteText(proto); after != before {
			t.Fatalf("%s: prototype text changed after its copies were compiled and run", m.Name)
		}
	}
}

// TestCopyIsDeep requires a copy to share no node, no slice and no shape
// context with its original, while keeping IDs, order and payloads.
func TestCopyIsDeep(t *testing.T) {
	_, protos := zooPrototypes(t)
	for name, g := range protos {
		c := g.Copy()
		if c.Ctx == g.Ctx {
			t.Fatalf("%s: copy shares the shape context", name)
		}
		if c.Name != g.Name || len(c.Nodes()) != len(g.Nodes()) ||
			len(c.Params) != len(g.Params) || len(c.Outputs) != len(g.Outputs) {
			t.Fatalf("%s: copy changed the graph's outline", name)
		}
		orig := map[*graph.Node]bool{}
		for _, n := range g.Nodes() {
			orig[n] = true
		}
		for i, n := range c.Nodes() {
			o := g.Nodes()[i]
			if orig[n] {
				t.Fatalf("%s: node %d is shared", name, n.ID)
			}
			if n.ID != o.ID || n.Kind != o.Kind || n.Lit != o.Lit {
				t.Fatalf("%s: node %d does not mirror its original", name, i)
			}
			for _, in := range n.Inputs {
				if orig[in] {
					t.Fatalf("%s: node %d has an input in the original graph", name, n.ID)
				}
			}
			if len(n.Shape) > 0 && &n.Shape[0] == &o.Shape[0] {
				t.Fatalf("%s: node %d shares its shape slice", name, n.ID)
			}
		}
		for _, n := range append(append([]*graph.Node(nil), c.Params...), c.Outputs...) {
			if orig[n] {
				t.Fatalf("%s: parameter or output %d is shared", name, n.ID)
			}
		}
		if graph.WriteText(c) != graph.WriteText(g) {
			t.Fatalf("%s: copy writes different text", name)
		}
	}
}

// TestCopyConcurrent copies one prototype from 8 goroutines at once, then
// evaluates and compiles each copy concurrently. Under -race it proves Copy
// (and Context.Clone beneath it) never writes the prototype. Prototypes
// come both parsed and straight from the builder: only the builder's
// graphs carry unified dims, whose union-find paths a read through find
// would compress.
func TestCopyConcurrent(t *testing.T) {
	const workers = 8
	_, parsed := zooPrototypes(t)
	for _, name := range []string{"bert", "gpt2", "textcnn"} {
		m, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range []*graph.Graph{parsed[name], m.Build()} {
			copyConcurrently(t, m, proto, workers)
		}
	}
}

// copyConcurrently runs workers goroutines that each copy proto, evaluate
// the copy, compile it and run it, and requires bit-identical outputs.
func copyConcurrently(t *testing.T, m *models.Model, proto *graph.Graph, workers int) {
	t.Helper()
	ins := m.GenInputs(tensor.NewRNG(3), 1, min(5, m.MaxSeq))
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	outs := make([][]*tensor.Tensor, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := proto.Copy()
			if _, err := graph.Evaluate(c, ins); err != nil {
				errs <- err
				return
			}
			e, err := build(c)
			if err != nil {
				errs <- err
				return
			}
			res, err := e.Run(ins)
			if err != nil {
				errs <- err
				return
			}
			outs[w] = res.Outputs
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("%s: %v", m.Name, err)
	}
	for w := 1; w < workers; w++ {
		requireSameBits(t, m.Name, outs[w], outs[0])
	}
}

// BenchmarkParseZoo and BenchmarkCopyZoo price the two ways a model
// repository can hand out a fresh graph of every zoo model. ParseZoo
// prices both payload encodings: /decimal is every file written before the
// b64 form existed, /b64 is what WriteText writes now.
func BenchmarkParseZoo(b *testing.B) {
	for _, enc := range []struct {
		name  string
		write func(*graph.Graph) string
	}{{"decimal", graph.WriteTextDecimal}, {"b64", graph.WriteText}} {
		b.Run(enc.name, func(b *testing.B) {
			var texts []string
			size := 0
			for _, m := range models.Registry() {
				texts = append(texts, enc.write(m.Build()))
				size += len(texts[len(texts)-1])
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, text := range texts {
					if _, err := graph.ParseText(text); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkCopyZoo(b *testing.B) {
	_, protos := zooPrototypes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range protos {
			g.Copy()
		}
	}
}
