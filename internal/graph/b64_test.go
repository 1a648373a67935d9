package graph

import (
	"encoding/base64"
	"math"
	"runtime"
	"strings"
	"testing"

	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// constText is a graph returning one constant declared as decl with the
// given data= payload.
func constText(decl, payload string) string {
	return "graph g {\n  %0 = constant " + decl + " data=" + payload + "\n  return %0\n}\n"
}

func b64Of(raw ...byte) string { return "b64:" + base64.StdEncoding.EncodeToString(raw) }

// oneTwo is f32 [1, 2] in little-endian bytes.
var oneTwo = []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40}

func TestB64PayloadAccepts(t *testing.T) {
	g, err := ParseText(constText("f32[2]", b64Of(oneTwo...)))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Outputs[0].Lit.F32(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("decoded %v, want [1 2]", got)
	}
	g, err = ParseText(constText("bool[3]", b64Of(1, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Outputs[0].Lit.Bools(); !got[0] || got[1] || !got[2] {
		t.Fatalf("decoded %v, want [true false true]", got)
	}
	g, err = ParseText(constText("i32[1]", b64Of(0xfe, 0xff, 0xff, 0xff)))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Outputs[0].Lit.I32(); got[0] != -2 {
		t.Fatalf("decoded %v, want [-2]", got)
	}
}

// TestB64PayloadRejects: every malformed b64 payload is an error, never a
// panic, and the parser's allocation stays bounded by the input length
// however large the declared shape.
func TestB64PayloadRejects(t *testing.T) {
	good := base64.StdEncoding.EncodeToString(oneTwo) // "AACAPwAAAEA="
	sixteen := base64.StdEncoding.EncodeToString(make([]byte, 16))
	cases := []struct{ name, src, want string }{
		{"lying length", constText("f32[3]", "b64:"+good), "does not encode"},
		{"short by one byte", constText("f32[2]", b64Of(oneTwo[:7]...)), "decodes to 7 bytes"},
		{"long by one byte", constText("f32[2]", b64Of(append(oneTwo, 0)...)), "decodes to 9 bytes"},
		{"long by one quantum", constText("f32[2]", "b64:"+good+"AAAA"), "does not encode"},
		{"unpadded", constText("f32[2]", "b64:"+strings.TrimRight(good, "=")), "does not encode"},
		{"non-zero padding bits", constText("f32[2]", "b64:"+good[:10]+"B="), "illegal base64"},
		{"= in the middle", constText("f32[2]", "b64:"+good[:4]+"="+good[5:]), "illegal base64"},
		{"space inside", constText("f32[2]", "b64:"+good[:5]+" "+good[6:]), "illegal base64"},
		{"newline inside", constText("f32[2]", "b64:"+good[:6]+"\n"+good[6:]), "does not encode"},
		// Right length, but the decoder skips the four CRs.
		{"carriage returns inside", constText("f32[4]", "b64:"+sixteen[:4]+"\r\r\r\r"+sixteen[8:]), "decodes to 13 bytes"},
		{"illegal character", constText("f32[2]", "b64:"+good[:3]+"!"+good[4:]), "illegal base64"},
		{"url alphabet", constText("f32[4]", "b64:"+sixteen[:2]+"-_"+sixteen[4:]), "illegal base64"},
		{"bool byte 2", constText("bool[2]", b64Of(1, 2)), "bool element 1 is byte 2"},
		{"bool byte 255", constText("bool[3]", b64Of(0, 0, 0xff)), "bool element 2 is byte 255"},
		{"empty for a non-empty shape", constText("i32[1]", "b64:"), "does not encode"},
		{"no colon", constText("f32[2]", "b64"+good), "missing data payload"},
		{"dynamic shape", "graph g {\n  dim d0 dynamic\n  %0 = constant f32[d0] data=b64:" + good + "\n  return %0\n}\n", "dynamic shape"},
		{"numel overflows", constText("f32[4611686018427387904, 4]", "b64:"), "too large"},
		{"bytes overflow", constText("f32[4611686018427387904]", "b64:"+good), "too large"},
		{"huge declared shape", constText("f32[1000000000]", "b64:"+good), "does not encode"},
		{"huge shape, decimal", constText("f32[1000000000]", "[1, 2]"), "payload has 2 values"},
		{"numel overflows, decimal", constText("f32[4611686018427387904, 4]", "[]"), "too large"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parse := func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic: %v", r)
					}
				}()
				_, err := ParseText(c.src)
				if err == nil {
					t.Fatalf("accepted:\n%s", c.src)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Fatalf("error %q, want it to mention %q", err, c.want)
				}
			}
			parse()
			if allocs := testing.AllocsPerRun(20, parse); allocs > 200 {
				t.Fatalf("%.0f allocations to reject a %d-byte input", allocs, len(c.src))
			}
			if b := bytesPerRun(20, parse); b > 64*len(c.src)+32<<10 {
				t.Fatalf("%d bytes allocated to reject a %d-byte input", b, len(c.src))
			}
		})
	}
}

// bytesPerRun is the mean heap allocation of f in bytes.
func bytesPerRun(runs int, f func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int((after.TotalAlloc - before.TotalAlloc) / uint64(runs))
}

// TestB64Threshold: constants of up to decimalMaxElems elements stay
// decimal, larger ones are written in the b64 form.
func TestB64Threshold(t *testing.T) {
	for _, n := range []int{1, decimalMaxElems, decimalMaxElems + 1, 100} {
		g := New("t")
		c := g.Constant(tensor.RandN(tensor.NewRNG(uint64(n)), 1, n))
		g.SetOutputs(g.Exp(c))
		text := WriteText(g)
		if wantB64 := n > decimalMaxElems; strings.Contains(text, "data=b64:") != wantB64 {
			t.Fatalf("%d elements: b64=%v, want %v:\n%s", n, !wantB64, wantB64, text)
		}
		if strings.Contains(WriteTextDecimal(g), "b64") {
			t.Fatalf("%d elements: the decimal writer wrote b64", n)
		}
	}
}

// TestB64BitExact: a payload of NaNs with payload and sign bits, ±0,
// subnormals and infinities, and the extremes of i32, survive the b64 form
// bit for bit, and the text is a fixpoint.
func TestB64BitExact(t *testing.T) {
	bits := []uint32{
		0x7fc00000, 0x7fc00001, 0xffffffff, 0x7f800001, // NaNs
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x7f800000, 0xff800000, // ±Inf
		0x7f7fffff, 0x00800000, 0x3f800000, 0xbf800001, 0x33d6bf95,
		0x12345678, 0x87654321,
	}
	f32 := make([]float32, len(bits))
	for i, b := range bits {
		f32[i] = math.Float32frombits(b)
	}
	i32 := []int32{math.MinInt32, math.MaxInt32, -1, 0, 1}
	i32 = append(i32, i32...)
	i32 = append(i32, i32...)
	bools := make([]bool, 21)
	for i := range bools {
		bools[i] = i%3 == 0
	}
	g := New("bits")
	d := g.Ctx.NewDim("B")
	x := g.Parameter("x", tensor.F32, symshape.Shape{d})
	g.SetOutputs(x,
		g.Constant(tensor.FromF32(f32, 2, len(f32)/2)),
		g.Constant(tensor.FromI32(i32, len(i32))),
		g.Constant(tensor.FromBool(bools, 3, 7)))
	text := WriteText(g)
	if n := strings.Count(text, "data=b64:"); n != 3 {
		t.Fatalf("%d b64 payloads, want 3:\n%s", n, text)
	}
	p, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	if again := WriteText(p); again != text {
		t.Fatalf("not a fixpoint:\n%s\nwant:\n%s", again, text)
	}
	for i, v := range p.Outputs[1].Lit.F32() {
		if math.Float32bits(v) != bits[i] {
			t.Fatalf("f32 element %d: %#08x, want %#08x", i, math.Float32bits(v), bits[i])
		}
	}
	for i, v := range p.Outputs[2].Lit.I32() {
		if v != i32[i] {
			t.Fatalf("i32 element %d: %d, want %d", i, v, i32[i])
		}
	}
	for i, v := range p.Outputs[3].Lit.Bools() {
		if v != bools[i] {
			t.Fatalf("bool element %d: %v, want %v", i, v, bools[i])
		}
	}
}
