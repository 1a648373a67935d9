// Byte-identity, allocation and throughput tests of the wire codec in
// protocol.go, against the encoding/json-only reference in
// codec_ref_test.go.
package fleet

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"godisc/internal/serve"
	"godisc/internal/tensor"
)

// TestAppendInferResponseMatchesReference: the appender's output is byte
// for byte what json.Encoder made of the InferResponse — every dtype,
// nil and empty tensors, no outputs at all, rank 0, every parameters
// combination, strings that need escaping, and the floats on either side
// of each formatting boundary.
func TestAppendInferResponseMatchesReference(t *testing.T) {
	next := func(v, toward float32) float32 { return math.Nextafter32(v, toward) }
	floats := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.1, -2.5, 1e-6, next(1e-6, 0), next(1e-6, 1),
		1e-7, -1e-7, 1e-9, 1e-10, 1e-38, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		1e21, next(1e21, 0), next(1e21, 2e21), -1e21, 1e22, math.MaxFloat32, -math.MaxFloat32, 16777216, 123456.79}
	type replyCase struct {
		name, model, version, id string
		resp                     serve.Response
	}
	cases := []replyCase{
		{"fp32 boundaries", "alpha", "1", "", serve.Response{
			Outputs: []*tensor.Tensor{tensor.FromF32(floats, 5, 5)}, CacheHit: true}},
		{"all dtypes", "m", "2", "req-1", serve.Response{Outputs: []*tensor.Tensor{
			tensor.FromF32([]float32{1.5, -2}, 2, 1),
			tensor.FromI32([]int32{0, -1, math.MaxInt32, math.MinInt32}, 4),
			tensor.FromBool([]bool{true, false, true}, 1, 3),
		}, CacheHit: true, Fallback: true, Batched: true}},
		{"no outputs", "m", "1", "", serve.Response{}},
		{"nil and empty storage", "m", "1", "", serve.Response{Outputs: []*tensor.Tensor{
			tensor.FromF32(nil, 0), tensor.FromF32([]float32{}, 0, 4),
			tensor.FromI32(nil, 2, 0), tensor.FromI32([]int32{}, 0),
			tensor.FromBool(nil, 0), tensor.FromBool([]bool{}, 0),
		}}},
		{"rank 0", "m", "", "", serve.Response{Outputs: []*tensor.Tensor{tensor.Scalar(3), tensor.ScalarI32(-7)}}},
		{"strings that escape", `a"b\c<d>&e`, "v é\x7f", "id\xff\n\t\x00\U0001F600", serve.Response{
			Outputs: []*tensor.Tensor{tensor.Scalar(1)}, Fallback: true}},
	}
	for mask := 0; mask < 8; mask++ {
		cases = append(cases, replyCase{fmt.Sprintf("parameters %03b", mask), "m", "1", "x", serve.Response{
			Outputs:  []*tensor.Tensor{tensor.Scalar(1)},
			CacheHit: mask&1 != 0, Fallback: mask&2 != 0, Batched: mask&4 != 0}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := encodeRef(tc.model, tc.version, tc.id, &tc.resp)
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte("kept")
			got, err := appendInferResponse(prefix, tc.model, tc.version, tc.id, &tc.resp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append([]byte("kept"), want...)) {
				t.Fatalf("reply bytes differ\n got %q\nwant %q", got[len(prefix):], want)
			}
		})
	}
}

// TestAppendInferResponseNonFinite: a NaN or ±Inf output is the error it
// was under encoding/json — same text, same status — and hands the buffer
// back untouched.
func TestAppendInferResponseNonFinite(t *testing.T) {
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		resp := &serve.Response{Outputs: []*tensor.Tensor{
			tensor.FromF32([]float32{1, 2}, 2), tensor.FromF32([]float32{0, v, 3}, 3)}}
		_, werr := encodeRef("m", "1", "", resp)
		got, err := appendInferResponse([]byte("kept"), "m", "1", "", resp)
		if err == nil || werr == nil {
			t.Fatalf("%v: want an error from both, got %v / reference %v", v, err, werr)
		}
		if err.Error() != werr.Error() || StatusFor(err) != StatusFor(werr) {
			t.Fatalf("%v: error %q (%d), reference %q (%d)", v, err, StatusFor(err), werr, StatusFor(werr))
		}
		if string(got) != "kept" {
			t.Fatalf("%v: failed append returned %q", v, got)
		}
	}
}

// TestSameBits: the shadow comparison is by dtype, shape and bit pattern.
func TestSameBits(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	cases := []struct {
		name string
		a, b *tensor.Tensor
		want bool
	}{
		{"equal f32", tensor.FromF32([]float32{1, 2}, 2), tensor.FromF32([]float32{1, 2}, 2), true},
		{"last ulp", tensor.FromF32([]float32{1}, 1), tensor.FromF32([]float32{math.Nextafter32(1, 2)}, 1), false},
		{"-0 vs 0", tensor.FromF32([]float32{0}, 1), tensor.FromF32([]float32{negZero}, 1), false},
		{"-0 vs -0", tensor.FromF32([]float32{negZero}, 1), tensor.FromF32([]float32{negZero}, 1), true},
		{"finite vs NaN", tensor.FromF32([]float32{1}, 1), tensor.FromF32([]float32{nan}, 1), false},
		{"finite vs Inf", tensor.FromF32([]float32{1}, 1), tensor.FromF32([]float32{float32(math.Inf(1))}, 1), false},
		{"shape", tensor.FromF32([]float32{1, 2}, 2), tensor.FromF32([]float32{1, 2}, 1, 2), false},
		{"dtype", tensor.FromF32([]float32{1}, 1), tensor.FromI32([]int32{1}, 1), false},
		{"equal i32", tensor.FromI32([]int32{1, -2}, 2), tensor.FromI32([]int32{1, -2}, 2), true},
		{"unequal i32", tensor.FromI32([]int32{1, -2}, 2), tensor.FromI32([]int32{1, 2}, 2), false},
		{"equal bool", tensor.FromBool([]bool{true}, 1), tensor.FromBool([]bool{true}, 1), true},
		{"unequal bool", tensor.FromBool([]bool{true}, 1), tensor.FromBool([]bool{false}, 1), false},
	}
	for _, tc := range cases {
		if got := sameBits(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: sameBits = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// codecFixture is a gpt2_kvcache-shaped exchange of about size bytes each
// way: one FP32 tensor carrying the bulk plus a small INT32 one.
func codecFixture(tb testing.TB, elems int) (body []byte, resp *serve.Response) {
	tb.Helper()
	kv := tensor.RandN(tensor.NewRNG(uint64(elems)), 0.5, elems)
	ids := tensor.FromI32([]int32{17, 4, 1023}, 3)
	resp = &serve.Response{Outputs: []*tensor.Tensor{kv, ids}, CacheHit: true}
	reply, err := encodeRef("gpt2", "1", "", resp)
	if err != nil {
		tb.Fatal(err)
	}
	// A reply's outputs array is, field for field, a request's inputs.
	body = append([]byte(`{"id":"r","inputs":`), reply[bytes.Index(reply, []byte(`[{"name"`)):bytes.LastIndex(reply, []byte(`,"parameters"`))]...)
	body = append(body, '}')
	if _, _, err := DecodeInferRequest(body); err != nil {
		tb.Fatalf("fixture body does not decode: %v", err)
	}
	return body, resp
}

// codecSizes are element counts whose bodies come to about 1 KB, 25 KB
// and 740 KB — the span of gpt2_kvcache's requests.
var codecSizes = []struct {
	name  string
	elems int
}{{"1KB", 80}, {"25KB", 2200}, {"740KB", 65000}}

// BenchmarkV2Decode and BenchmarkV2Encode time the codec and, as the
// ref/ sub-benchmarks, the encoding/json-only reference it replaced.
func BenchmarkV2Decode(b *testing.B) {
	for _, impl := range []struct {
		prefix string
		decode func([]byte) (*InferRequest, []*tensor.Tensor, error)
	}{{"", DecodeInferRequest}, {"ref/", decodeInferRequestRef}} {
		for _, sz := range codecSizes {
			body, _ := codecFixture(b, sz.elems)
			b.Run(impl.prefix+sz.name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := impl.decode(body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkV2Encode(b *testing.B) {
	for _, sz := range codecSizes {
		_, resp := codecFixture(b, sz.elems)
		buf, _ := appendInferResponse(nil, "gpt2", "1", "", resp)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _ = appendInferResponse(buf[:0], "gpt2", "1", "", resp)
			}
		})
		b.Run("ref/"+sz.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := encodeRef("gpt2", "1", "", resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCodecAllocations is the allocation gate: rendering a reply into a
// warm buffer allocates nothing, and the number of allocations a decode
// makes does not depend on how many elements the body carries.
func TestCodecAllocations(t *testing.T) {
	smallBody, smallResp := codecFixture(t, 1000)
	bigBody, bigResp := codecFixture(t, 100000)

	for _, resp := range []*serve.Response{smallResp, bigResp} {
		buf, err := appendInferResponse(nil, "gpt2", "1", "req", resp)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() {
			buf, _ = appendInferResponse(buf[:0], "gpt2", "1", "req", resp)
		}); n != 0 {
			t.Errorf("encode of %d elements into a warm buffer: %v allocs, want 0", resp.Outputs[0].Numel(), n)
		}
	}

	decodeAllocs := func(body []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := DecodeInferRequest(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := decodeAllocs(smallBody), decodeAllocs(bigBody)
	if small != big {
		t.Errorf("decode allocations grow with the body: %v at 1 000 elements, %v at 100 000", small, big)
	}
	t.Logf("decode: %v allocs at either size", small)
}
