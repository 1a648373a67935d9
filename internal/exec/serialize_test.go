package exec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"godisc/internal/codegen"
	"godisc/internal/device"
	"godisc/internal/fusion"
	"godisc/internal/kir"
	"godisc/internal/models"
	"godisc/internal/opt"
	"godisc/internal/randgraph"
	"godisc/internal/tensor"
	"godisc/internal/wire"
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
	// never panic (DecodeImage has no recover: validation catches
	// structural damage, and FuzzDecodeImage holds it to that).
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

// zooEngines compiles every model-zoo engine under the serving default.
func zooEngines(tb testing.TB) map[string]*Executable {
	out := map[string]*Executable{}
	for _, m := range models.Registry() {
		out[m.Name] = compile(tb, m.Build(), fusion.DefaultConfig())
	}
	return out
}

// BenchmarkImageZoo times encoding and decoding the seven zoo images, per
// zoo, for the binary image and for the gob oracle it replaced.
func BenchmarkImageZoo(b *testing.B) {
	engines := zooEngines(b)
	codecs := []struct {
		name   string
		encode func(*Executable) ([]byte, error)
		decode func([]byte, *device.Model, Options) (*Executable, error)
	}{
		{"binary", (*Executable).EncodeImage, DecodeImage},
		{"gob", (*Executable).encodeImageGob, decodeImageGob},
	}
	for _, c := range codecs {
		images := map[string][]byte{}
		size := 0
		for name, e := range engines {
			img, err := c.encode(e)
			if err != nil {
				b.Fatal(err)
			}
			images[name] = img
			size += len(img)
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, e := range engines {
					if _, err := c.encode(e); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(size), "bytes/zoo")
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, img := range images {
					if _, err := c.decode(img, device.A10(), DefaultOptions()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// variantsOf lists every kernel variant of an engine in task order.
func variantsOf(e *Executable) []*codegen.Variant {
	var out []*codegen.Variant
	for _, t := range e.tasks {
		if k := t.u.kernel; k != nil {
			out = append(out, k.Variants...)
		}
	}
	return out
}

// programBytes is a program's persisted form: its name, buffer and dim
// signature, frame sizes, compile statistics and every instruction.
func programBytes(cp *kir.Compiled) []byte {
	w := wire.NewWriter(0)
	cp.AppendBinary(w)
	return w.Bytes()
}

// requireSamePrograms holds a decoded engine to the gob oracle: the oracle
// rebuilds every program with kir.Finalize from the encoded AST, and the
// binary image must carry exactly those programs, instruction for
// instruction, as well as the ones the original engine runs.
func requireSamePrograms(t *testing.T, label string, orig *Executable) *Executable {
	t.Helper()
	img, err := orig.EncodeImage()
	if err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	dec, err := DecodeImage(img, device.A10(), DefaultOptions())
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	gimg, err := orig.encodeImageGob()
	if err != nil {
		t.Fatalf("%s: gob encode: %v", label, err)
	}
	oracle, err := decodeImageGob(gimg, device.A10(), DefaultOptions())
	if err != nil {
		t.Fatalf("%s: gob decode: %v", label, err)
	}
	ov, dv, gv := variantsOf(orig), variantsOf(dec), variantsOf(oracle)
	if len(dv) != len(ov) || len(gv) != len(ov) {
		t.Fatalf("%s: %d variants decoded, %d from the oracle, %d compiled", label, len(dv), len(gv), len(ov))
	}
	for i := range ov {
		d := programBytes(dv[i].Code)
		if !bytes.Equal(d, programBytes(gv[i].Code)) || !bytes.Equal(d, programBytes(ov[i].Code)) {
			t.Fatalf("%s: variant %s differs from Finalize of its AST\ndecoded:\n%s\nfinalized:\n%s",
				label, ov[i].Name, dv[i].Code.Disassemble(), gv[i].Code.Disassemble())
		}
		if !reflect.DeepEqual(dv[i].Spec, gv[i].Spec) || dv[i].Name != gv[i].Name ||
			dv[i].MemEfficiency != gv[i].MemEfficiency || dv[i].ComputeEfficiency != gv[i].ComputeEfficiency {
			t.Fatalf("%s: variant %s metadata differs from the oracle", label, ov[i].Name)
		}
	}
	return oracle
}

// TestImageProgramsMatchFinalize is the differential test of the binary
// image against the gob oracle, over the model zoo and random graphs:
// identical programs, and bit-identical outputs from the two decoded
// engines.
func TestImageProgramsMatchFinalize(t *testing.T) {
	for _, m := range models.Registry() {
		orig := compile(t, m.Build(), fusion.DefaultConfig())
		oracle := requireSamePrograms(t, m.Name, orig)
		img, _ := orig.EncodeImage()
		dec, err := DecodeImage(img, device.A10(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r := tensor.NewRNG(11)
		ins := m.GenInputs(r, 3, min(13, m.MaxSeq))
		requireBitIdentical(t, oracle, dec, ins, m.Name)
	}
	for seed := uint64(900); seed < 925; seed++ {
		h := []int{4, 8, 16}[seed%3]
		g := buildRandom(seed, 4+int(seed%10), h)
		orig := compile(t, g, fusion.DefaultConfig())
		oracle := requireSamePrograms(t, fmt.Sprintf("randgraph seed %d", seed), orig)
		img, _ := orig.EncodeImage()
		dec, err := DecodeImage(img, device.A10(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r := tensor.NewRNG(seed)
		ins := randgraph.Inputs(r, 1+int(r.Intn(4)), 1+int(r.Intn(24)), h)
		requireBitIdentical(t, oracle, dec, ins, "randgraph")
	}
}

// zooImageGolden is the SHA-256 of every zoo model's engine image under the
// serving default. It changes whenever the image layout or any program a
// zoo graph compiles to changes; a persisted image of the old program must
// then not be served, which is what ImageVersion is for.
var zooImageGolden = map[string]string{
	"bert":    "bf1b9acc93bbc04fcc5bc9a648e0223f88af211cf74885d38fe4d48ea2a1f3ef",
	"gpt2":    "58490be9dfcb8af3fe8470fb2410d52a85fe17079689def19e1f2f99162b878a",
	"seq2seq": "2a4ed2e2c3c1049de3021660e2a429b28a67aeee6f1551307ebd7385c141b435",
	"textcnn": "898b1b13e758f880c280d1aad57f8f421c747a1b3a5690f9c66d3d4cfd755756",
	"asr":     "48d2c40c61b61c8b0e1fd29b5e81255aa4552a3682b80b32fd8b52effd950ef8",
	"dlrm":    "d44935c0ee027c6aff8ff338617ddd679dfdcfcae1f0aaeefa638a16041ceccb",
	"mlp":     "2950b07079919c045bb8e47ed550ae0245bc16df2ed666e9fb3cf459a80451cd",
}

// TestZooImageGolden pins the encoded zoo images.
func TestZooImageGolden(t *testing.T) {
	for name, e := range zooEngines(t) {
		img, err := e.EncodeImage()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(img)
		got := hex.EncodeToString(sum[:])
		if want := zooImageGolden[name]; got != want {
			t.Errorf("%s: engine image sha256 %s, golden %s (%d bytes): the image or a program it carries "+
				"changed; bump exec.ImageVersion and update this golden", name, got, want, len(img))
		}
	}
}
