// The reference codec: the encoding/json-only implementation of the v2
// tensor wire format that protocol.go and handleInfer used before the
// hand-written scanner and appender replaced the element-scaling part.
// It is kept verbatim as the differential oracle — FuzzV2InferDecode,
// FuzzV2FloatCodec and the byte-identity tests hold the production codec
// to the same accept/reject set, status codes, decoded bits and reply
// bytes as this file.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"godisc/internal/discerr"
	"godisc/internal/serve"
	"godisc/internal/tensor"
)

// decodeInferRequestRef is the former DecodeInferRequest.
func decodeInferRequestRef(body []byte) (*InferRequest, []*tensor.Tensor, error) {
	var req InferRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, &httpError{code: 400, msg: fmt.Sprintf("fleet: malformed request body: %v", err)}
	}
	ins := make([]*tensor.Tensor, len(req.Inputs))
	for i := range req.Inputs {
		t, err := decodeTensorRef(&req.Inputs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: input %d (%q): %w", i, req.Inputs[i].Name, err)
		}
		ins[i] = t
	}
	return &req, ins, nil
}

// decodeTensorRef is the former decodeTensor.
func decodeTensorRef(in *InferTensor) (*tensor.Tensor, error) {
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
	check := func(n int) error {
		if int64(n) != elems {
			return fmt.Errorf("shape %v declares %d elements, data carries %d: %w",
				in.Shape, elems, n, discerr.ErrShapeMismatch)
		}
		return nil
	}
	switch in.Datatype {
	case DatatypeFP32:
		var data []float32
		if err := json.Unmarshal(in.Data, &data); err != nil {
			return nil, fmt.Errorf("FP32 data: %v: %w", err, discerr.ErrShapeMismatch)
		}
		if err := check(len(data)); err != nil {
			return nil, err
		}
		return tensor.FromF32(data, shape...), nil
	case DatatypeINT32:
		var data []int32
		if err := json.Unmarshal(in.Data, &data); err != nil {
			return nil, fmt.Errorf("INT32 data: %v: %w", err, discerr.ErrShapeMismatch)
		}
		if err := check(len(data)); err != nil {
			return nil, err
		}
		return tensor.FromI32(data, shape...), nil
	case DatatypeBOOL:
		var data []bool
		if err := json.Unmarshal(in.Data, &data); err != nil {
			return nil, fmt.Errorf("BOOL data: %v: %w", err, discerr.ErrShapeMismatch)
		}
		if err := check(len(data)); err != nil {
			return nil, err
		}
		return tensor.FromBool(data, shape...), nil
	default:
		return nil, fmt.Errorf("datatype %q: %w", in.Datatype, discerr.ErrUnsupported)
	}
}

// encodeTensorRef is the former encodeTensor.
func encodeTensorRef(name string, t *tensor.Tensor) (InferTensor, error) {
	out := InferTensor{Name: name, Datatype: datatypeOf(t.DType())}
	out.Shape = make([]int64, t.Rank())
	for i := 0; i < t.Rank(); i++ {
		out.Shape[i] = int64(t.Dim(i))
	}
	var payload any
	switch t.DType() {
	case tensor.F32:
		payload = t.F32()
	case tensor.I32:
		payload = t.I32()
	case tensor.Bool:
		payload = t.Bools()
	default:
		return out, fmt.Errorf("fleet: output dtype %v: %w", t.DType(), discerr.ErrUnsupported)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return out, fmt.Errorf("fleet: encoding output %q: %w", name, err)
	}
	out.Data = raw
	return out, nil
}

// encodeRef is the reply half of the former handleInfer: the
// InferResponse it assembled from a serve response, rendered the way
// writeJSON rendered it (json.Encoder: HTML escaping on, one trailing
// newline).
func encodeRef(model, version, id string, resp *serve.Response) ([]byte, error) {
	out := InferResponse{ModelName: model, ModelVersion: version, ID: id}
	for i, t := range resp.Outputs {
		wt, err := encodeTensorRef(fmt.Sprintf("output_%d", i), t)
		if err != nil {
			return nil, err
		}
		out.Outputs = append(out.Outputs, wt)
	}
	params := map[string]any{}
	if resp.CacheHit {
		params["cache_hit"] = true
	}
	if resp.Fallback {
		params["fallback"] = true
	}
	if resp.Batched {
		params["batched"] = true
	}
	if len(params) > 0 {
		out.Parameters = params
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
