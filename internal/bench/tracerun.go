package bench

import (
	"fmt"

	"godisc/internal/baselines"
	"godisc/internal/models"
	"godisc/internal/obs"
	"godisc/internal/tensor"
)

// TraceRun replays a model's standard serving trace through a BladeDISC
// engine with the tracer's hook installed, actually executing each
// request (unlike the simulated experiment replays) so the tracer
// records the full exec span tree — per-unit kernel and library spans.
// It backs discbench's -trace-out flag and returns the number
// of requests executed.
func TraceRun(cfg Config, model string, tracer *obs.Tracer) (int, error) {
	dev, err := cfg.device()
	if err != nil {
		return 0, err
	}
	m, err := models.ByName(model)
	if err != nil {
		return 0, err
	}
	params := baselines.BladeDISCParams()
	if tracer != nil {
		params.Hook = tracer
	}
	disc, err := baselines.NewCompiled(m.Build(), dev, params)
	if err != nil {
		return 0, err
	}
	tr := cfg.traceFor(m)
	r := tensor.NewRNG(cfg.Seed)
	for _, p := range tr.Points {
		seq := p.Seq
		if seq > m.MaxSeq {
			seq = m.MaxSeq
		}
		if _, _, err := disc.Invoke(m.GenInputs(r, p.Batch, seq)); err != nil {
			return 0, fmt.Errorf("bench: traced replay of %s at %+v: %w", model, p, err)
		}
	}
	return len(tr.Points), nil
}
