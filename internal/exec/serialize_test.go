package exec

import (
	"bytes"
	"testing"

	"godisc/internal/device"
	"godisc/internal/fusion"
	"godisc/internal/models"
	"godisc/internal/opt"
	"godisc/internal/randgraph"
	"godisc/internal/tensor"
)

// TestEngineImageRoundTripModels encodes and decodes every model-zoo engine
// and requires the reloaded engine to produce bit-identical outputs,
// identical simulated profiles, identical footprints and the same capacity
// bound as the original — the property the persistent engine cache rests on.
func TestEngineImageRoundTripModels(t *testing.T) {
	for _, m := range models.Registry() {
		orig := compile(t, m.Build(), fusion.DefaultConfig())
		data, err := orig.EncodeImage()
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Name, err)
		}
		dec, err := DecodeImage(data, device.A10(), DefaultOptions())
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Name, err)
		}
		for _, p := range [][2]int{{1, 4}, {3, 17}, {8, 96}} {
			seqLen := min(p[1], m.MaxSeq)
			r := tensor.NewRNG(uint64(7 * (p[0] + seqLen)))
			ins := m.GenInputs(r, p[0], seqLen)
			requireBitIdentical(t, orig, dec, ins, m.Name)

			shapes := make([][]int, len(ins))
			for i, in := range ins {
				shapes[i] = in.Shape()
			}
			po, err := orig.Simulate(shapes)
			if err != nil {
				t.Fatalf("%s: simulate original: %v", m.Name, err)
			}
			pd, err := dec.Simulate(shapes)
			if err != nil {
				t.Fatalf("%s: simulate decoded: %v", m.Name, err)
			}
			if po.SimulatedNs != pd.SimulatedNs {
				t.Fatalf("%s: simulated time %v vs %v after round trip", m.Name, po.SimulatedNs, pd.SimulatedNs)
			}
			fo, err := orig.FootprintBytes(shapes)
			if err != nil {
				t.Fatalf("%s: footprint original: %v", m.Name, err)
			}
			fd, err := dec.FootprintBytes(shapes)
			if err != nil {
				t.Fatalf("%s: footprint decoded: %v", m.Name, err)
			}
			if fo != fd {
				t.Fatalf("%s: footprint %d vs %d after round trip", m.Name, fo, fd)
			}
		}
		mo, oko := orig.MaxFootprintBytes()
		md, okd := dec.MaxFootprintBytes()
		if mo != md || oko != okd {
			t.Fatalf("%s: max footprint (%d,%v) vs (%d,%v) after round trip", m.Name, mo, oko, md, okd)
		}
	}
}

// TestEngineImageRoundTripRandomGraphs covers the fuzz-shaped corner of the
// format: random graphs.
func TestEngineImageRoundTripRandomGraphs(t *testing.T) {
	const trials = 25
	for seed := uint64(900); seed < 900+trials; seed++ {
		h := []int{4, 8, 16}[seed%3]
		g := buildRandom(seed, 4+int(seed%10), h)
		if _, err := opt.Default().Run(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		orig, err := Compile(g, plan, device.A10(), DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		data, err := orig.EncodeImage()
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		dec, err := DecodeImage(data, device.A10(), DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		r := tensor.NewRNG(seed)
		b, s := 1+int(r.Intn(4)), 1+int(r.Intn(24))
		ins := randgraph.Inputs(r, b, s, h)
		requireBitIdentical(t, orig, dec, ins, "randgraph")
		if st := dec.Pool.Stats(); st.InUseElems != 0 {
			t.Fatalf("seed %d: decoded engine leaked %d elems", seed, st.InUseElems)
		}
	}
}

// TestEngineImageDeterministic requires EncodeImage to be stable for one
// engine: cache entries should not churn on disk across identical persists.
func TestEngineImageDeterministic(t *testing.T) {
	m := models.Registry()[0]
	e := compile(t, m.Build(), fusion.DefaultConfig())
	a, err := e.EncodeImage()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.EncodeImage()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("EncodeImage is not deterministic for a fixed engine")
	}
}

// TestEncodeImageDeterministic requires two compiles of the same model to
// encode byte-identical images, for every zoo model: compile may not depend
// on map iteration order. Byte equality is what lets a graph copy be
// checked against a fresh parse exactly.
func TestEncodeImageDeterministic(t *testing.T) {
	for _, m := range models.Registry() {
		var images [2][]byte
		for i := range images {
			img, err := compile(t, m.Build(), fusion.DefaultConfig()).EncodeImage()
			if err != nil {
				t.Fatalf("%s: encode: %v", m.Name, err)
			}
			images[i] = img
		}
		if !bytes.Equal(images[0], images[1]) {
			t.Errorf("%s: two compiles encode different images (%d vs %d bytes)", m.Name, len(images[0]), len(images[1]))
		}
	}
}

// TestDecodeImageRejectsGarbage feeds the decoder hostile inputs and
// requires errors, never panics.
func TestDecodeImageRejectsGarbage(t *testing.T) {
	m := models.Registry()[0]
	e := compile(t, m.Build(), fusion.DefaultConfig())
	valid, err := e.EncodeImage()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     valid[:len(valid)/3],
		"garbage":   []byte("not an engine image at all"),
		"truncated": valid[:len(valid)-7],
	}
	// Bit flips across the payload: every one must decode cleanly or error,
	// never panic (the recover in DecodeImage is the backstop; validation
	// catches structural damage).
	for i := 0; i < len(valid); i += 101 {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x40
		cases["bitflip"] = flipped
		for name, data := range cases {
			if _, err := DecodeImage(data, device.A10(), DefaultOptions()); err == nil && name != "bitflip" {
				t.Fatalf("%s: decode accepted malformed input", name)
			}
		}
		delete(cases, "bitflip")
	}
}
