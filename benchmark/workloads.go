package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"godisc"
	"godisc/internal/fleet"
	"godisc/internal/models"
	"godisc/internal/tensor"
	"godisc/internal/workload"
)

// poolSize is how many distinct requests an inference workload cycles
// through. Bodies are encoded before any clock starts.
const poolSize = 64

// shapeSeed fixes the Zipf shape draw of bert_zipf. The shape mix is part
// of the workload's definition, not of a run: request cost follows shape,
// so a mix drawn from --seed would make two seeds two different workloads
// (±15 % mean cost over 64 draws). --seed drives everything else — input
// values, pool order, arrival times, send order, round order.
const shapeSeed = 2023

// point is one request's model and shape coordinates.
type point struct {
	model      string
	batch, seq int
}

// spec is one benchmark workload. Rates and limits are constants calibrated
// once on the reference host (see README.md), never derived at run time.
type spec struct {
	name string
	// models is the model repository's content, in load order.
	models []string
	// rate is the open-loop arrival rate in requests per second, 20–30 % of
	// the seed commit's closed-loop capacity: low enough that latency is
	// service time plus a little queueing, so that a 10 % slower host does
	// not read as a 30 % slower p90.
	rate float64
	// limitMs is the latency limit within_limit_ratio is judged against.
	limitMs float64
	// churn marks model_churn, whose operation is a load/infer/unload
	// round instead of an inference request.
	churn bool
	// points lists the pool's (model, shape) mix; the same for every seed.
	points func() []point
}

var workloads = []spec{
	{
		name: "bert_zipf", models: []string{"bert"}, rate: 120, limitMs: 100,
		points: func() []point {
			tr := workload.Zipf(workload.Spec{Requests: poolSize, MaxBatch: 4, MaxSeq: 128, Seed: shapeSeed})
			ps := make([]point, len(tr.Points))
			for i, p := range tr.Points {
				ps[i] = point{"bert", p.Batch, p.Seq}
			}
			return ps
		},
	},
	{
		name: "gpt2_kvcache", models: []string{"gpt2"}, rate: 40, limitMs: 150,
		points: func() []point {
			ps := make([]point, poolSize)
			for i := range ps {
				ps[i] = point{"gpt2", []int{1, 2, 4}[i%3], 32 + 16*((i/3)%15)}
			}
			return ps
		},
	},
	{
		name: "dlrm_tiny", models: []string{"dlrm", "mlp"}, rate: 1200, limitMs: 5,
		points: func() []point {
			ps := make([]point, poolSize)
			for i := range ps {
				ps[i] = point{[]string{"dlrm", "mlp"}[i%2], 1, 1}
			}
			return ps
		},
	},
	{
		name: "model_churn", limitMs: 500, churn: true,
		models: []string{"bert", "gpt2", "seq2seq", "textcnn", "asr", "dlrm", "mlp"},
		// One small request per zoo model: the round's verified infer.
		points: func() []point {
			return []point{
				{"bert", 2, 32}, {"gpt2", 2, 64}, {"seq2seq", 2, 24}, {"textcnn", 2, 48},
				{"asr", 2, 40}, {"dlrm", 4, 1}, {"mlp", 4, 1},
			}
		},
	},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// request is one pool entry: a pre-encoded v2 infer body, the reference
// outputs it must produce, and — once warm-up has verified it — the exact
// reply bytes the server gave.
type request struct {
	point
	path   string
	body   []byte
	inputs []*tensor.Tensor
	want   []*tensor.Tensor
	reply  []byte
}

// buildPool makes the workload's requests from the seed: input values come
// from the seed, the order of the pool is a seeded shuffle of the fixed
// shape mix, and reference outputs come from godisc.Evaluate on a graph
// parsed here from the repository text — never from the engine under test.
func buildPool(w spec, seed uint64, texts map[string]string) ([]*request, error) {
	pts := w.points()
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	pool := make([]*request, len(pts))
	zoo := map[string]*models.Model{}
	params := map[string][]string{} // model → input names, in order
	for i, p := range pts {
		m := zoo[p.model]
		if m == nil {
			var err error
			if m, err = models.ByName(p.model); err != nil {
				return nil, err
			}
			zoo[p.model] = m
			for _, prm := range m.Build().Params {
				params[p.model] = append(params[p.model], prm.Name)
			}
		}
		r := &request{point: p, path: "/v2/models/" + p.model + "/infer"}
		r.inputs = m.GenInputs(tensor.NewRNG(seed*1000003+uint64(i)), p.batch, p.seq)
		var err error
		if r.body, err = encodeRequest(params[p.model], r.inputs); err != nil {
			return nil, err
		}
		pool[i] = r
	}
	// References are the slow part (the interpreter); spread them over the
	// cores, one independently parsed graph per goroutine and model.
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail error
		next = make(chan *request)
	)
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			graphs := map[string]*godisc.Graph{}
			for r := range next {
				g := graphs[r.model]
				var err error
				if g == nil {
					if g, err = godisc.ParseGraph(texts[r.model]); err == nil {
						graphs[r.model] = g
					}
				}
				if err == nil {
					r.want, err = godisc.Evaluate(g, r.inputs)
				}
				if err != nil {
					mu.Lock()
					fail = fmt.Errorf("reference for %s b=%d s=%d: %w", r.model, r.batch, r.seq, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, r := range pool {
		next <- r
	}
	close(next)
	wg.Wait()
	return pool, fail
}

// encodeRequest renders inputs as a v2 infer body, naming each tensor
// after the graph parameter it feeds.
func encodeRequest(names []string, inputs []*tensor.Tensor) ([]byte, error) {
	req := fleet.InferRequest{Inputs: make([]fleet.InferTensor, len(inputs))}
	for i, t := range inputs {
		it := fleet.InferTensor{Name: names[i], Shape: make([]int64, t.Rank())}
		for d := range it.Shape {
			it.Shape[d] = int64(t.Dim(d))
		}
		var payload any
		switch t.DType() {
		case tensor.F32:
			it.Datatype, payload = fleet.DatatypeFP32, t.F32()
		case tensor.I32:
			it.Datatype, payload = fleet.DatatypeINT32, t.I32()
		default:
			return nil, fmt.Errorf("input %d: dtype %v not encodable", i, t.DType())
		}
		raw, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		it.Data = raw
		req.Inputs[i] = it
	}
	return json.Marshal(req)
}

// poolHash fingerprints a pool's request bodies, in order.
func poolHash(pool []*request) string {
	h := sha256.New()
	for _, r := range pool {
		h.Write([]byte(r.path))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Tolerances of the reference check. A compiled engine is not bit-identical
// to the interpreter — the optimizer reassociates and fuses — so replies
// are held to the tolerance the repository's own serving tests use; bit
// identity is demanded between replies to the same request (verify).
const refRtol, refAtol = 1e-4, 1e-5

// checkReply decodes a reply and compares every output with the reference:
// shape and dtype exactly, FP32 elements within refRtol/refAtol, INT32
// elements exactly.
func checkReply(r *request, reply []byte) error {
	var resp fleet.InferResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("undecodable reply: %v", err)
	}
	if len(resp.Outputs) != len(r.want) {
		return fmt.Errorf("%d outputs, reference has %d", len(resp.Outputs), len(r.want))
	}
	for i, out := range resp.Outputs {
		want := r.want[i]
		shape := make([]int, len(out.Shape))
		elems := 1
		for d, n := range out.Shape {
			shape[d] = int(n)
			elems *= int(n)
		}
		if !slices.Equal(shape, want.Shape()) {
			return fmt.Errorf("output %d: shape %v, reference %v", i, shape, want.Shape())
		}
		var got *tensor.Tensor
		switch want.DType() {
		case tensor.F32:
			var data []float32
			if out.Datatype != fleet.DatatypeFP32 || json.Unmarshal(out.Data, &data) != nil || len(data) != elems {
				return fmt.Errorf("output %d: not %d %s elements", i, elems, fleet.DatatypeFP32)
			}
			got = tensor.FromF32(data, shape...)
		case tensor.I32:
			var data []int32
			if out.Datatype != fleet.DatatypeINT32 || json.Unmarshal(out.Data, &data) != nil || len(data) != elems {
				return fmt.Errorf("output %d: not %d %s elements", i, elems, fleet.DatatypeINT32)
			}
			got = tensor.FromI32(data, shape...)
		default:
			return fmt.Errorf("output %d: reference dtype %v not comparable", i, want.DType())
		}
		rtol, atol := refRtol, refAtol
		if want.DType() == tensor.I32 {
			rtol, atol = 0, 0
		}
		if err := tensor.AllClose(got, want, rtol, atol); err != nil {
			return fmt.Errorf("output %d: %w", i, err)
		}
	}
	return nil
}

// verify is the steady-state check: the reply must equal the reply warm-up
// verified for this request byte for byte; a difference falls back to the
// decoded compare with the reference before it is called a mismatch (the
// reply's parameters may legitimately differ, its numbers may not).
func (r *request) verify(reply []byte) error {
	if r.reply != nil && bytes.Equal(reply, r.reply) {
		return nil
	}
	return checkReply(r, reply)
}
