package graph_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/randgraph"
	"godisc/internal/tensor"
)

// parseBoth writes g in the decimal and the b64 form and parses each.
func parseBoth(t testing.TB, g *graph.Graph) (dec, b64 *graph.Graph) {
	t.Helper()
	decText, b64Text := graph.WriteTextDecimal(g), graph.WriteText(g)
	dec, err := graph.ParseText(decText)
	if err != nil {
		t.Fatalf("%s: parse decimal: %v", g.Name, err)
	}
	b64, err = graph.ParseText(b64Text)
	if err != nil {
		t.Fatalf("%s: parse b64: %v", g.Name, err)
	}
	return dec, b64
}

// requireSameEngine compiles both graphs and demands byte-identical
// engine images (compile is deterministic) and bit-identical Evaluate
// outputs.
func requireSameEngine(t *testing.T, label string, dec, b64 *graph.Graph, ins []*tensor.Tensor) {
	t.Helper()
	evalDec, err := graph.Evaluate(dec, ins)
	if err != nil {
		t.Fatalf("%s: evaluate decimal: %v", label, err)
	}
	evalB64, err := graph.Evaluate(b64, ins)
	if err != nil {
		t.Fatalf("%s: evaluate b64: %v", label, err)
	}
	requireSameBits(t, label+" (evaluate)", evalB64, evalDec)
	if !bytes.Equal(encode(t, compileGraph(t, b64)), encode(t, compileGraph(t, dec))) {
		t.Fatalf("%s: the two encodings compile to different engine images", label)
	}
}

// TestEncodingsAgreeZoo: every zoo model, written in either payload form,
// parses to a graph that compiles to the same engine image and evaluates
// to the same bits. The benchmark cannot see a decoder bug that both of
// its sides share (it parses what it wrote); this is the check that can.
func TestEncodingsAgreeZoo(t *testing.T) {
	for _, m := range models.Registry() {
		g := m.Build()
		if text := graph.WriteText(g); !strings.Contains(text, "data=b64:") {
			t.Fatalf("%s: no constant written in the b64 form", m.Name)
		}
		dec, b64 := parseBoth(t, g)
		if graph.WriteText(dec) != graph.WriteText(b64) {
			t.Fatalf("%s: the two encodings parse to graphs that write different text", m.Name)
		}
		ins := m.GenInputs(tensor.NewRNG(5), 2, min(9, m.MaxSeq))
		requireSameEngine(t, m.Name, dec, b64, ins)
	}
}

// TestEncodingsAgreeRandgraph sweeps random graphs whose bias and weight
// constants sit on both sides of the b64 threshold.
func TestEncodingsAgreeRandgraph(t *testing.T) {
	var sawDecimal, sawB64 bool
	for seed := uint64(1); seed <= 12; seed++ {
		h := []int{8, 16, 24}[seed%3]
		g := randgraph.Build(seed, 14, h)
		text := graph.WriteText(g)
		sawDecimal = sawDecimal || strings.Contains(text, "data=[")
		sawB64 = sawB64 || strings.Contains(text, "data=b64:")
		dec, b64 := parseBoth(t, g)
		ins := randgraph.Inputs(tensor.NewRNG(seed), 2, 5, h)
		requireSameEngine(t, fmt.Sprintf("seed %d h %d", seed, h), dec, b64, ins)
	}
	if !sawDecimal || !sawB64 {
		t.Fatalf("sweep wrote decimal=%v b64=%v payloads; it must cover both", sawDecimal, sawB64)
	}
}

// TestLegacyDecimalFile: a dlrm file written before the b64 form existed
// (every payload decimal) still parses, and evaluates bit-identically to
// the model the zoo builds today.
func TestLegacyDecimalFile(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "legacy", "dlrm.graph"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(src, []byte("b64:")) {
		t.Fatal("legacy file holds b64 payloads")
	}
	legacy, err := graph.ParseText(string(src))
	if err != nil {
		t.Fatalf("legacy file: %v", err)
	}
	m, err := models.ByName("dlrm")
	if err != nil {
		t.Fatal(err)
	}
	want := m.Build()
	// The first parse renumbers node ids, so compare after one on both
	// sides.
	current, err := graph.ParseText(graph.WriteText(want))
	if err != nil {
		t.Fatal(err)
	}
	if graph.WriteText(legacy) != graph.WriteText(current) {
		t.Fatal("the legacy file and the zoo's dlrm parse to graphs that write different text")
	}
	for _, rows := range []int{1, 7} {
		ins := m.GenInputs(tensor.NewRNG(uint64(rows)), rows, 1)
		got, err := graph.Evaluate(legacy, ins)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := graph.Evaluate(want, ins)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("dlrm rows %d", rows), got, ref)
	}
}
