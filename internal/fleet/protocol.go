// KServe-style v2 inference protocol types and the JSON wire codec of the
// fleet front-end. The codec is split by what scales with tensor size:
// encoding/json still parses the request envelope (keys, strings, shapes
// — and with them key folding, duplicate keys, the depth limit and
// trailing-garbage rejection), while the "data" arrays are scanned, and
// the reply rendered, by the strconv-level code at the bottom of this
// file. Decoding is deliberately paranoid — the declared shape of a tensor
// is never trusted for allocation; the data array (bounded by the request
// body, which the HTTP layer caps) is decoded first and the shape merely
// validated against it. FuzzV2InferDecode and FuzzV2FloatCodec hold both
// halves to the encoding/json-only reference in codec_ref_test.go.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"godisc/internal/discerr"
	"godisc/internal/serve"
	"godisc/internal/tensor"
)

// V2 datatype names for the dtypes godisc serves.
const (
	DatatypeFP32  = "FP32"
	DatatypeINT32 = "INT32"
	DatatypeBOOL  = "BOOL"
)

// datatypeOf maps a tensor dtype to its v2 wire name.
func datatypeOf(dt tensor.DType) string {
	switch dt {
	case tensor.F32:
		return DatatypeFP32
	case tensor.I32:
		return DatatypeINT32
	case tensor.Bool:
		return DatatypeBOOL
	}
	return "UNKNOWN"
}

// InferTensor is one named tensor on the wire: a flat row-major data array
// plus its declared shape. Data is the array's JSON text, for clients that
// build requests or read replies through encoding/json; the server's own
// codec (bottom of this file) neither fills nor reads it.
type InferTensor struct {
	Name     string          `json:"name"`
	Shape    []int64         `json:"shape"`
	Datatype string          `json:"datatype"`
	Data     json.RawMessage `json:"data,omitempty"`
}

// InferRequest is the body of POST /v2/models/{name}/infer.
type InferRequest struct {
	ID     string        `json:"id,omitempty"`
	Inputs []InferTensor `json:"inputs"`
}

// InferResponse is the success body of an infer call.
type InferResponse struct {
	ModelName    string         `json:"model_name"`
	ModelVersion string         `json:"model_version,omitempty"`
	ID           string         `json:"id,omitempty"`
	Outputs      []InferTensor  `json:"outputs"`
	Parameters   map[string]any `json:"parameters,omitempty"`
}

// TensorMeta describes one model input or output in metadata responses.
// Dynamic dimensions are -1 per the v2 protocol; ShapeSymbolic carries the
// symbolic dimension facts (name, range, divisibility) the signature
// declares — the information a client needs to know which concrete shapes
// one engine serves.
type TensorMeta struct {
	Name          string   `json:"name"`
	Datatype      string   `json:"datatype"`
	Shape         []int64  `json:"shape"`
	ShapeSymbolic []string `json:"shape_symbolic,omitempty"`
}

// ModelMeta is the body of GET /v2/models/{name}[/versions/{v}].
type ModelMeta struct {
	Name     string       `json:"name"`
	Versions []string     `json:"versions,omitempty"`
	Platform string       `json:"platform"`
	Inputs   []TensorMeta `json:"inputs"`
	Outputs  []TensorMeta `json:"outputs"`
}

// ModelStatus is one entry of the repository index: a loaded model
// version and its lifecycle state.
type ModelStatus struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	State   string `json:"state"`
	Reason  string `json:"reason,omitempty"`
	// Resident reports whether the version's engine footprint is
	// currently charged against the memory governor (false after an LRU
	// eviction; the next request re-charges and reloads transparently).
	Resident bool `json:"resident"`
	// Health is the version's health-lattice state (HEALTHY, DEGRADED or
	// QUARANTINED — see health.go).
	Health string `json:"health,omitempty"`
}

// wireRequest and wireTensor are what encoding/json parses a request
// body into: InferRequest and InferTensor field for field — same names,
// tags and types, so every envelope rule is encoding/json's own — except
// that a tensor's data is recorded in place rather than copied.
type wireRequest struct {
	ID     string       `json:"id,omitempty"`
	Inputs []wireTensor `json:"inputs"`
}

type wireTensor struct {
	Name     string   `json:"name"`
	Shape    []int64  `json:"shape"`
	Datatype string   `json:"datatype"`
	Data     dataSpan `json:"data,omitempty"`
}

// dataSpan is a tensor's "data" value exactly as encoding/json delimited
// and validated it: the sub-slice of the body that Unmarshal hands its
// Unmarshalers. json.RawMessage copies that slice because an Unmarshaler
// may not assume it outlives the call; here it does — the body is
// DecodeInferRequest's own argument, read-only until it returns, and
// nothing it returns refers to it.
type dataSpan []byte

func (d *dataSpan) UnmarshalJSON(b []byte) error {
	*d = b
	return nil
}

// DecodeInferRequest parses and validates a v2 infer body into concrete
// tensors, in input order. It never allocates storage from a declared
// shape: the data array — bounded by the body the HTTP layer already
// capped — is decoded first and the overflow-guarded shape product must
// match its length exactly. Malformed JSON, unknown datatypes and
// shape/data disagreements reject with errors that map to 4xx
// (discerr.ErrShapeMismatch / discerr.ErrUnsupported). The returned
// request carries each input's name, shape and datatype with Data left
// empty; neither it nor the tensors alias body.
func DecodeInferRequest(body []byte) (*InferRequest, []*tensor.Tensor, error) {
	var wire wireRequest
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, nil, &httpError{code: 400, msg: fmt.Sprintf("fleet: malformed request body: %v", err)}
	}
	req := &InferRequest{ID: wire.ID, Inputs: make([]InferTensor, len(wire.Inputs))}
	ins := make([]*tensor.Tensor, len(wire.Inputs))
	for i := range wire.Inputs {
		in := &wire.Inputs[i]
		t, err := decodeTensor(in)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: input %d (%q): %w", i, in.Name, err)
		}
		ins[i] = t
		req.Inputs[i] = InferTensor{Name: in.Name, Shape: in.Shape, Datatype: in.Datatype}
	}
	return req, ins, nil
}

// decodeTensor validates one wire tensor and builds the concrete tensor.
func decodeTensor(in *wireTensor) (*tensor.Tensor, error) {
	elems := int64(1)
	for _, d := range in.Shape {
		if d < 0 {
			return nil, fmt.Errorf("negative dim %d in shape %v: %w", d, in.Shape, discerr.ErrShapeMismatch)
		}
		if d != 0 && elems > math.MaxInt64/d {
			return nil, fmt.Errorf("shape %v overflows: %w", in.Shape, discerr.ErrShapeMismatch)
		}
		elems *= d
	}
	shape := make([]int, len(in.Shape))
	for i, d := range in.Shape {
		shape[i] = int(d)
	}
	check := func(n int, err error) error {
		if err != nil {
			return fmt.Errorf("%s data: %v: %w", in.Datatype, err, discerr.ErrShapeMismatch)
		}
		if int64(n) != elems {
			return fmt.Errorf("shape %v declares %d elements, data carries %d: %w",
				in.Shape, elems, n, discerr.ErrShapeMismatch)
		}
		return nil
	}
	switch in.Datatype {
	case DatatypeFP32:
		data, err := scanArray(in.Data, scanF32)
		if err := check(len(data), err); err != nil {
			return nil, err
		}
		return tensor.FromF32(data, shape...), nil
	case DatatypeINT32:
		data, err := scanArray(in.Data, scanI32)
		if err := check(len(data), err); err != nil {
			return nil, err
		}
		return tensor.FromI32(data, shape...), nil
	case DatatypeBOOL:
		data, err := scanArray(in.Data, scanBool)
		if err := check(len(data), err); err != nil {
			return nil, err
		}
		return tensor.FromBool(data, shape...), nil
	default:
		return nil, fmt.Errorf("datatype %q: %w", in.Datatype, discerr.ErrUnsupported)
	}
}

// --- data scanner ------------------------------------------------------

// jsonSpace and tokenEnd classify bytes for the scanner: JSON's four
// whitespace bytes, and those plus the two bytes that end an array
// element.
var (
	jsonSpace = [256]bool{' ': true, '\t': true, '\r': true, '\n': true}
	tokenEnd  = [256]bool{' ': true, '\t': true, '\r': true, '\n': true, ',': true, ']': true}
)

func skipSpace(v []byte, i int) int {
	for i < len(v) && jsonSpace[v[i]] {
		i++
	}
	return i
}

// scanArray decodes a tensor's data value — a flat JSON array of scalars,
// or null — into a slice sized once from the value's comma count. It is a
// single non-recursive pass that accepts exactly what json.Unmarshal into
// a []T accepts and yields the same elements (FuzzV2FloatCodec); elem
// decodes one delimited token. The production caller hands it a value
// encoding/json already validated, but it relies on that for nothing: any
// byte sequence either decodes or is rejected.
func scanArray[T any](v []byte, elem func(tok []byte) (T, bool)) ([]T, error) {
	i := skipSpace(v, 0)
	if i == len(v) {
		return nil, errors.New("unexpected end of JSON input")
	}
	if v[i] != '[' {
		// As in encoding/json, null decodes to the nil slice.
		if string(bytes.TrimRight(v[i:], " \t\r\n")) == "null" {
			return nil, nil
		}
		return nil, fmt.Errorf("data is not an array: %.32q", v[i:])
	}
	// No element type is spelled with a quote, so a value holding one is
	// rejected here; in what remains every comma separates two elements,
	// which bounds the allocation below by half the value's length.
	if bytes.IndexByte(v, '"') >= 0 {
		return nil, errors.New("string in data array")
	}
	i = skipSpace(v, i+1)
	if i < len(v) && v[i] == ']' {
		if skipSpace(v, i+1) != len(v) {
			return nil, errors.New("bytes after data array")
		}
		return []T{}, nil
	}
	out := make([]T, 0, bytes.Count(v, []byte{','})+1)
	for {
		start := i
		for i < len(v) && !tokenEnd[v[i]] {
			i++
		}
		x, ok := elem(v[start:i])
		if !ok {
			return nil, fmt.Errorf("bad element %d: %.32q", len(out), v[start:i])
		}
		out = append(out, x)
		i = skipSpace(v, i)
		if i == len(v) {
			return nil, errors.New("unexpected end of JSON input")
		}
		switch v[i] {
		case ',':
			i = skipSpace(v, i+1)
		case ']':
			if skipSpace(v, i+1) != len(v) {
				return nil, errors.New("bytes after data array")
			}
			return out, nil
		default:
			return nil, fmt.Errorf("bad element %d: %.32q", len(out), v[start:])
		}
	}
}

// The element scanners call the strconv functions encoding/json calls,
// behind the JSON number grammar (strconv alone also takes "+1", ".5",
// "0x10", "Inf"). A null element is the zero value, as in encoding/json.

func scanF32(tok []byte) (float32, bool) {
	if !validNumber(tok) {
		return 0, string(tok) == "null"
	}
	f, err := strconv.ParseFloat(string(tok), 32)
	return float32(f), err == nil
}

func scanI32(tok []byte) (int32, bool) {
	if !validNumber(tok) {
		return 0, string(tok) == "null"
	}
	n, err := strconv.ParseInt(string(tok), 10, 32)
	return int32(n), err == nil
}

func scanBool(tok []byte) (bool, bool) {
	switch string(tok) {
	case "true":
		return true, true
	case "false", "null":
		return false, true
	}
	return false, false
}

// validNumber reports whether s is a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(s []byte) bool {
	digits := func(i int) int {
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i == len(s):
		return false
	case s[i] == '0':
		i++
	default:
		j := digits(i)
		if j == i {
			return false
		}
		i = j
	}
	if i < len(s) && s[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(s)
}

// --- reply appender ------------------------------------------------------

// appendInferResponse appends the success body of an infer call: byte for
// byte what json.NewEncoder(w).Encode of the corresponding InferResponse
// writes — field order, omitted empty fields, HTML-safe string escaping,
// encoding/json's float32 formatting, the trailing newline. A non-finite
// output element is an error, as it is for encoding/json; dst is then
// returned as it was passed.
func appendInferResponse(dst []byte, model, version, id string, resp *serve.Response) ([]byte, error) {
	b := append(dst, `{"model_name":`...)
	b = appendString(b, model)
	if version != "" {
		b = appendString(append(b, `,"model_version":`...), version)
	}
	if id != "" {
		b = appendString(append(b, `,"id":`...), id)
	}
	b = append(b, `,"outputs":`...)
	if len(resp.Outputs) == 0 {
		b = append(b, "null"...)
	} else {
		sep := byte('[')
		for i, t := range resp.Outputs {
			b = append(append(b, sep), `{"name":"output_`...)
			sep = ','
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, `","shape":[`...)
			for j, d := range t.Shape() {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(d), 10)
			}
			b = append(b, `],"datatype":"`...)
			b = append(b, datatypeOf(t.DType())...)
			b = append(b, `","data":`...)
			var err error
			if b, err = appendTensorData(b, t); err != nil {
				return dst, fmt.Errorf("fleet: encoding output \"output_%d\": %w", i, err)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	// encoding/json renders the parameters map with its keys sorted.
	open := `,"parameters":{"`
	for _, p := range [...]struct {
		key string
		set bool
	}{{"batched", resp.Batched}, {"cache_hit", resp.CacheHit}, {"fallback", resp.Fallback}} {
		if p.set {
			b = append(append(append(b, open...), p.key...), `":true`...)
			open = `,"`
		}
	}
	if open == `,"` {
		b = append(b, '}')
	}
	return append(b, "}\n"...), nil
}

// appendString appends s as a JSON string the way encoding/json renders
// it. Strings of plain printable ASCII need only the quotes; anything that
// would be escaped (control bytes, quote, backslash, the HTML bytes <>&,
// non-ASCII) goes through json.Marshal itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // cannot fail for a string
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendTensorData appends t's elements as a flat JSON array (null for a
// nil backing slice, as json.Marshal renders one).
func appendTensorData(dst []byte, t *tensor.Tensor) ([]byte, error) {
	switch t.DType() {
	case tensor.F32:
		return appendArray(dst, t.F32(), appendF32)
	case tensor.I32:
		return appendArray(dst, t.I32(), func(b []byte, v int32) ([]byte, error) {
			return strconv.AppendInt(b, int64(v), 10), nil
		})
	case tensor.Bool:
		return appendArray(dst, t.Bools(), func(b []byte, v bool) ([]byte, error) {
			return strconv.AppendBool(b, v), nil
		})
	}
	return dst, fmt.Errorf("dtype %v: %w", t.DType(), discerr.ErrUnsupported)
}

func appendArray[T any](dst []byte, s []T, elem func([]byte, T) ([]byte, error)) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, v := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = elem(dst, v); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendF32 formats v by encoding/json's float32 rule: shortest
// round-trip digits, 'f' form unless |v| < 1e-6 or |v| >= 1e21, then 'e'
// form with a two-digit negative exponent's leading zero dropped (e-07 →
// e-7). NaN and ±Inf have no JSON form.
func appendF32(dst []byte, v float32) ([]byte, error) {
	f := float64(v)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 32))
	}
	format := byte('f')
	if abs := float32(math.Abs(f)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 32)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}
