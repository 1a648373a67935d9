package fleet

import (
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"godisc/internal/discerr"
)

// decodeEdges are request bodies at the edges of the decoder's contract,
// each with the verdict encoding/json's rules give it. They seed
// FuzzV2InferDecode and are pinned by TestV2DecodeEdges.
var decodeEdges = []struct {
	name   string
	body   string
	accept bool
}{
	{"deep nesting must not recurse", `{"x":` + strings.Repeat("[", 100000), false},
	{"deep nesting inside data", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":` + strings.Repeat("[", 100000), false},
	{"three inputs, three dtypes", `{"id":"r","inputs":[{"name":"a","shape":[2],"datatype":"FP32","data":[0.5,-1e-7]},` +
		`{"name":"b","shape":[1,2],"datatype":"INT32","data":[7,-7]},{"name":"c","shape":[3],"datatype":"BOOL","data":[true,false,true]}]}`, true},
	{"keys fold case", `{"Inputs":[{"NAME":"x","Shape":[2],"dataType":"FP32","DATA":[1,2]}]}`, true},
	{"duplicate data: last wins", `{"inputs":[{"name":"x","shape":[2],"datatype":"FP32","data":[1],"data":[3,4]}]}`, true},
	{"duplicate data: last loses", `{"inputs":[{"name":"x","shape":[2],"datatype":"FP32","data":[3,4],"data":[1]}]}`, false},
	{"duplicate inputs merge per element", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[7]}],"inputs":[{"name":"y"}]}`, true},
	{"unknown fields ignored", `{"extra":{"a":[1,"b"]},"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[1],"parameters":{"k":"v"}}]}`, true},
	{"data null, zero elements", `{"inputs":[{"name":"x","shape":[0],"datatype":"FP32","data":null}]}`, true},
	{"data null, scalar shape", `{"inputs":[{"name":"x","shape":[],"datatype":"FP32","data":null}]}`, false},
	{"data missing, zero elements", `{"inputs":[{"name":"x","shape":[0],"datatype":"INT32"}]}`, false},
	{"data is a string", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":"[1]"}]}`, false},
	{"data is an object", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":{"0":1}}]}`, false},
	{"data is a number", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":1}]}`, false},
	{"null element is zero", `{"inputs":[{"name":"x","shape":[2],"datatype":"FP32","data":[null,1]}]}`, true},
	{"nested array", `{"inputs":[{"name":"x","shape":[2],"datatype":"FP32","data":[[1,2]]}]}`, false},
	{"object element", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[{}]}]}`, false},
	{"string element full of commas", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[",,,,,,,,"]}]}`, false},
	{"bool element in FP32", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[true]}]}`, false},
	{"1e39 overflows float32", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[1e39]}]}`, false},
	{"1e38 fits", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[1e38]}]}`, true},
	{"1e-60 underflows to zero", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[1e-60]}]}`, true},
	{"negative zero", `{"inputs":[{"name":"x","shape":[2],"datatype":"FP32","data":[-0,-0.0]}]}`, true},
	{"capital exponent", `{"inputs":[{"name":"x","shape":[2],"datatype":"FP32","data":[1E5,2E-3]}]}`, true},
	{"leading zero", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[01]}]}`, false},
	{"plus sign", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[+1]}]}`, false},
	{"bare fraction", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[.5]}]}`, false},
	{"trailing point", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[1.]}]}`, false},
	{"hex", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[0x10]}]}`, false},
	{"Inf token", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[Inf]}]}`, false},
	{"NaN token", `{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":[NaN]}]}`, false},
	{"int32 max", `{"inputs":[{"name":"x","shape":[2],"datatype":"INT32","data":[2147483647,-2147483648]}]}`, true},
	{"int32 max + 1", `{"inputs":[{"name":"x","shape":[1],"datatype":"INT32","data":[2147483648]}]}`, false},
	{"1.0 as INT32", `{"inputs":[{"name":"x","shape":[1],"datatype":"INT32","data":[1.0]}]}`, false},
	{"1e2 as INT32", `{"inputs":[{"name":"x","shape":[1],"datatype":"INT32","data":[1e2]}]}`, false},
	{"-0 as INT32", `{"inputs":[{"name":"x","shape":[1],"datatype":"INT32","data":[-0]}]}`, true},
	{"number as BOOL", `{"inputs":[{"name":"m","shape":[1],"datatype":"BOOL","data":[1]}]}`, false},
	{"True as BOOL", `{"inputs":[{"name":"m","shape":[1],"datatype":"BOOL","data":[True]}]}`, false},
	{"null as BOOL", `{"inputs":[{"name":"m","shape":[2],"datatype":"BOOL","data":[null,true]}]}`, true},
	{"trailing comma", `{"inputs":[{"name":"x","shape":[2],"datatype":"FP32","data":[1,2,]}]}`, false},
	{"leading comma", `{"inputs":[{"name":"x","shape":[2],"datatype":"FP32","data":[,1,2]}]}`, false},
	{"double comma", `{"inputs":[{"name":"x","shape":[2],"datatype":"FP32","data":[1,,2]}]}`, false},
	{"every whitespace byte between tokens",
		"{ \"inputs\" :\t[\r{\n\"name\" : \"x\" , \"shape\" : [ 3 ] , \"datatype\" : \"FP32\" , \"data\" : \t\r\n[ \t1\r,\n2 , \t\r\n3\n] \t} ] }\r\n", true},
	{"form feed is not whitespace", "{\"inputs\":[{\"name\":\"x\",\"shape\":[1],\"datatype\":\"FP32\",\"data\":[\f1]}]}", false},
	{"empty array with a space", `{"inputs":[{"name":"x","shape":[0],"datatype":"FP32","data":[ ]}]}`, true},
	{"empty array, scalar shape", `{"inputs":[{"name":"x","shape":[],"datatype":"FP32","data":[]}]}`, false},
	{"scalar shape, one element", `{"inputs":[{"name":"x","shape":[],"datatype":"FP32","data":[4]}]}`, true},
	{"trailing garbage", `{"inputs":[]} x`, false},
	{"two documents", `{"inputs":[]}{"inputs":[]}`, false},
	{"invalid UTF-8 in a name is coerced", "{\"inputs\":[{\"name\":\"\xff\",\"shape\":[1],\"datatype\":\"FP32\",\"data\":[1]}]}", true},
	{"inputs null", `{"inputs":null}`, true},
	{"top-level array", `[1,2,3]`, false},
}

// checkDecodeAgainstRef runs body through DecodeInferRequest and the
// encoding/json-only reference and fails unless they agree: accept ⇔
// accept; on accept the same id, names, shapes, datatypes and element
// bits; on reject the same HTTP status and discerr class. It returns the
// shared verdict.
func checkDecodeAgainstRef(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	req, tensors, err := DecodeInferRequest(body)
	rreq, rtensors, rerr := decodeInferRequestRef(body)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("verdicts differ: got err %v, reference err %v", err, rerr)
	}
	if err != nil {
		if req != nil || tensors != nil {
			t.Fatalf("error return must be clean, got req=%v tensors=%v", req, tensors)
		}
		if StatusFor(err) != StatusFor(rerr) {
			t.Fatalf("status %d (%v), reference %d (%v)", StatusFor(err), err, StatusFor(rerr), rerr)
		}
		for _, class := range []error{discerr.ErrShapeMismatch, discerr.ErrUnsupported} {
			if errors.Is(err, class) != errors.Is(rerr, class) {
				t.Fatalf("errors.Is(%v) differs: got %v, reference %v", class, err, rerr)
			}
		}
		return false
	}
	if req.ID != rreq.ID || len(req.Inputs) != len(rreq.Inputs) || len(tensors) != len(rtensors) || len(tensors) != len(req.Inputs) {
		t.Fatalf("envelope differs: id %q/%q, %d/%d inputs, %d/%d tensors",
			req.ID, rreq.ID, len(req.Inputs), len(rreq.Inputs), len(tensors), len(rtensors))
	}
	for i, in := range req.Inputs {
		rin := rreq.Inputs[i]
		if in.Name != rin.Name || in.Datatype != rin.Datatype || !slices.Equal(in.Shape, rin.Shape) {
			t.Fatalf("input %d: %q %s %v, reference %q %s %v",
				i, in.Name, in.Datatype, in.Shape, rin.Name, rin.Datatype, rin.Shape)
		}
		if len(in.Data) != 0 {
			t.Fatalf("input %d: returned request still carries %d data bytes", i, len(in.Data))
		}
		if !sameBits(tensors[i], rtensors[i]) {
			t.Fatalf("input %d: tensor differs from the reference's:\n got %v\nwant %v", i, tensors[i], rtensors[i])
		}
	}
	return true
}

// TestV2DecodeEdges pins the verdict on every edge body and checks it
// against the reference.
func TestV2DecodeEdges(t *testing.T) {
	for _, tc := range decodeEdges {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkDecodeAgainstRef(t, []byte(tc.body)); got != tc.accept {
				t.Fatalf("accepted = %v, want %v", got, tc.accept)
			}
		})
	}
}

// FuzzV2InferDecode hammers the JSON tensor decoder with arbitrary
// bodies. Invariants: never panic; agree with the encoding/json-only
// reference decoder on every body (checkDecodeAgainstRef); on success
// every returned tensor's element count equals its declared
// (overflow-guarded) shape product; an absurd declared shape whose data
// array does not carry that many elements must be rejected — the decoder
// must never allocate from the declared shape.
func FuzzV2InferDecode(f *testing.F) {
	// Seed corpus: the conformance suite's accept and reject shapes.
	seeds := [][]byte{
		[]byte(`{"inputs":[{"name":"x","shape":[2,8],"datatype":"FP32","data":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}]}`),
		[]byte(`{"inputs":[{"name":"x","shape":[4],"datatype":"INT32","data":[1,2,3,4]}]}`),
		[]byte(`{"inputs":[{"name":"m","shape":[2],"datatype":"BOOL","data":[true,false]}]}`),
		[]byte(`{"inputs":[{"name":"x","shape":[0],"datatype":"FP32","data":[]}]}`),
		[]byte(`{"id":"r1","inputs":[]}`),
		[]byte(`{"inputs":[`),
		[]byte(`not json at all`),
		[]byte(`{"inputs":[{"name":"x","shape":[1,8],"datatype":"FP64","data":[1,2,3,4,5,6,7,8]}]}`),
		[]byte(`{"inputs":[{"name":"x","shape":[2,8],"datatype":"FP32","data":[1,2,3]}]}`),
		[]byte(`{"inputs":[{"name":"x","shape":[-1,8],"datatype":"FP32","data":[1]}]}`),
		[]byte(`{"inputs":[{"name":"x","shape":[4611686018427387904,4611686018427387904],"datatype":"FP32","data":[1]}]}`),
		[]byte(`{"inputs":[{"name":"x","shape":[9999999999],"datatype":"FP32","data":[1]}]}`),
		[]byte(`{"inputs":[{"name":"x","shape":[1],"datatype":"FP32","data":["oops"]}]}`),
		[]byte(`{"inputs":[{"name":"x","shape":[1],"datatype":"FP32"}]}`),
		[]byte(`{"inputs":[{"name":"x","shape":null,"datatype":"BOOL","data":[]}]}`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, e := range decodeEdges {
		f.Add([]byte(e.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if !checkDecodeAgainstRef(t, body) {
			return
		}
		req, tensors, _ := DecodeInferRequest(body)
		for i, tt := range tensors {
			in := req.Inputs[i]
			want := int64(1)
			for _, d := range in.Shape {
				want *= d
			}
			if int64(tt.Numel()) != want {
				t.Fatalf("input %d: tensor has %d elements, declared shape %v wants %d",
					i, tt.Numel(), in.Shape, want)
			}
			// The accepted request must round-trip as JSON (it will be
			// echoed into responses and logs).
			if _, err := json.Marshal(in); err != nil {
				t.Fatalf("accepted input %d does not re-marshal: %v", i, err)
			}
		}
	})
}

// checkScanAgainstJSON holds scanArray to json.Unmarshal on one data
// value and one element type: the same verdict, and on accept the same
// nil-ness, length and elements (eq compares two of them).
func checkScanAgainstJSON[T any](t *testing.T, data []byte, elem func([]byte) (T, bool), eq func(a, b T) bool) {
	t.Helper()
	got, err := scanArray(data, elem)
	var want []T
	werr := json.Unmarshal(data, &want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%T of %q: scanner err %v, encoding/json err %v", want, data, err, werr)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("%T of %q: rejected but returned %v", want, data, got)
		}
		return
	}
	if (got == nil) != (want == nil) || !slices.EqualFunc(got, want, eq) {
		t.Fatalf("%T of %q: scanner %#v, encoding/json %#v", want, data, got, want)
	}
}

func eqF32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
func eqI32(a, b int32) bool   { return a == b }
func eqBool(a, b bool) bool   { return a == b }

// FuzzV2FloatCodec is the round-trip-exactness check of the hand-written
// tensor-data codec against encoding/json, one element and one array at a
// time. (a) Any float32 bit pattern: the appender's bytes equal
// json.Marshal's (an error exactly where it errors: NaN, ±Inf), and the
// scanner reads them back to the same bits. (b) Any bytes as a "data"
// value: the scanner accepts exactly what json.Unmarshal into []float32,
// []int32 and []bool accepts, with equal elements.
func FuzzV2FloatCodec(f *testing.F) {
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), 1, -1.5, 1e-6, 9.999999e-7, 1e-7, 1e-10,
		1e21, 9.999999e20, 1e22, math.MaxFloat32, math.SmallestNonzeroFloat32, 1.17549435e-38, 0.1, 16777216, 3.4e38,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		f.Add(math.Float32bits(v), []byte(`[1,2,3]`))
	}
	for _, s := range []string{
		`[]`, `[ ]`, ` [ 1 , 2 ] `, "\t[\r1\n,\t2 ]\r\n", `null`, ` null `, `nul`, `nulll`, ``, ` `, `[`, `]`, `[1`, `[1,`, `[1,]`, `[,1]`, `[1,,2]`,
		`[1]]`, `[1] x`, `[1][2]`, `[[1]]`, `[[`, `[{}]`, `{}`, `"[1]"`, `["1"]`, `[",,,"]`, `1`, `true`, `[null]`, `[null,1,null]`,
		`[-0]`, `[-0.0]`, `[0]`, `[1E5]`, `[1e5]`, `[1e+5]`, `[1e-5]`, `[1e]`, `[1e+]`, `[e5]`, `[01]`, `[-01]`, `[00]`, `[+1]`, `[.5]`, `[1.]`, `[-]`, `[-.5]`,
		`[0x10]`, `[0x1p-2]`, `[1_000]`, `[Inf]`, `[-Inf]`, `[NaN]`, `[nan]`, `[infinity]`,
		`[1e38]`, `[1e39]`, `[-1e39]`, `[3.4028235e38]`, `[3.4028236e38]`, `[1e-45]`, `[1e-46]`, `[1e-400]`, `[1e400]`,
		`[123456789012345678901234567890]`, `[0.1000000000000000055511151231257827021181583404541015625]`,
		`[2147483647]`, `[2147483648]`, `[-2147483648]`, `[-2147483649]`, `[1.0]`, `[1e2]`, `[9223372036854775808]`,
		`[true]`, `[false]`, `[true,false]`, `[True]`, `[tru]`, `[truee]`, `[true false]`, `[1 2]`, `[0,1]`,
		"[\f1]", "[1\v]", "[1\x00]", "\ufeff[1]", `[1,2,3`, strings.Repeat("[", 1000), "[" + strings.Repeat("1,", 1000) + "1]",
	} {
		f.Add(uint32(0x3f800000), []byte(s))
	}
	f.Fuzz(func(t *testing.T, bits uint32, data []byte) {
		v := math.Float32frombits(bits)
		got, err := appendF32(nil, v)
		want, werr := json.Marshal(v)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%x: appender err %v, encoding/json err %v", bits, err, werr)
		}
		if err == nil {
			if string(got) != string(want) {
				t.Fatalf("%x: appender %q, encoding/json %q", bits, got, want)
			}
			back, ok := scanF32(got)
			if !ok || math.Float32bits(back) != bits {
				t.Fatalf("%x: %q scans back to %x (ok=%v)", bits, got, math.Float32bits(back), ok)
			}
		} else if len(got) != 0 {
			t.Fatalf("%x: appender failed but wrote %q", bits, got)
		}

		checkScanAgainstJSON(t, data, scanF32, eqF32)
		checkScanAgainstJSON(t, data, scanI32, eqI32)
		checkScanAgainstJSON(t, data, scanBool, eqBool)
	})
}
