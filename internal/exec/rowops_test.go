package exec

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"godisc/internal/fusion"
	"godisc/internal/kir"
	"godisc/internal/models"
)

// zooPerElementSweeps is the golden of TestZooSweepsAreRowOps: per zoo
// model, every LoopStride1 loop the serving default leaves as per-element
// bytecode, as "kernel/variant: rule". A lowering or matcher change that
// moves a contiguous sweep off the row path must update this list, with the
// rule that now rejects it.
var zooPerElementSweeps = map[string][]string{
	"bert":    nil,
	"gpt2":    nil,
	"seq2seq": nil,
	"textcnn": nil,
	"asr":     nil,
	"dlrm":    nil,
	"mlp":     nil,
}

// TestZooSweepsAreRowOps pins how many stride-1 sweeps of each zoo model
// run as row ops under the serving default (opt.Default, the default
// fusion plan, DefaultOptions): a deterministic count, so a kernel-level
// regression fails on any host rather than only on the wall clock.
func TestZooSweepsAreRowOps(t *testing.T) {
	for _, m := range models.Registry() {
		want, ok := zooPerElementSweeps[m.Name]
		if !ok {
			t.Errorf("%s: no golden entry", m.Name)
			continue
		}
		e := compile(t, m.Build(), fusion.DefaultConfig())
		seen := map[*kir.Compiled]bool{}
		var got []string
		for _, u := range e.units {
			if u.kernel == nil {
				continue
			}
			for _, v := range u.kernel.Variants {
				if seen[v.Code] {
					continue // row schedules share one program
				}
				seen[v.Code] = true
				for _, why := range v.Code.PerElementSweeps() {
					got = append(got, fmt.Sprintf("%s/%s: %s", u.kernel.Name, v.Name, why))
				}
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-element stride-1 sweeps %q, golden %q", m.Name, got, want)
		}
	}
}
