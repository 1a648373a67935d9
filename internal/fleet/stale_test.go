package fleet

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"godisc/internal/graph"
	"godisc/internal/servetest"
	"godisc/internal/tensor"
)

// alphaReply returns alpha/1's batch-2 reply from fx as floats.
func alphaReply(t *testing.T, fx *fixture) []float32 {
	t.Helper()
	resp := fx.infer(t, "alpha", "1", 2, nil)
	var got []float32
	if err := json.Unmarshal(resp.Outputs[0].Data, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// requireServes fails unless reply is g's output on the fixture's batch-2
// alpha input (to f32 rounding), and far from stale's.
func requireServes(t *testing.T, reply []float32, g, stale *graph.Graph, label string) {
	t.Helper()
	in := tensor.FromF32(randInput(2*31+7, 2, 8), 2, 8)
	dist := func(g *graph.Graph) float64 {
		out, err := graph.Evaluate(g, []*tensor.Tensor{in})
		if err != nil {
			t.Fatal(err)
		}
		want := out[0].F32()
		if len(want) != len(reply) {
			t.Fatalf("%s: %d outputs, want %d", label, len(reply), len(want))
		}
		d := 0.0
		for i := range want {
			d = math.Max(d, math.Abs(float64(want[i]-reply[i])))
		}
		return d
	}
	if d := dist(g); d > 1e-4 {
		t.Fatalf("%s: reply is %g from the model on disk (%g from the stale one): a stale engine was served",
			label, d, dist(stale))
	}
	if d := dist(stale); d < 1e-2 {
		t.Fatalf("%s: the edited model is indistinguishable from the stale one (%g)", label, d)
	}
}

// TestEditedVersionNeverServedStale overwrites alpha/1's model.graph with a
// same-shape graph of different weights, then loads it again: in the same
// process (after an unload) and in a new process on the same engine-cache
// directory. Both must serve the weights on disk, never the engine compiled
// from the old file: cache keys name the SHA-256 of the graph bytes.
func TestEditedVersionNeverServedStale(t *testing.T) {
	orig := fixtureGraph("alpha", "1")
	edited := buildDense("alpha", 999, 8, 16, 4)
	edit := func(t *testing.T, repo string) {
		path := filepath.Join(repo, "alpha", "1", GraphFileName)
		if err := os.WriteFile(path, []byte(graph.WriteText(edited)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	closeFleet := func(t *testing.T, fx *fixture) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := fx.f.Close(ctx); err != nil {
			t.Fatal(err)
		}
		servetest.Drain(t, fx.srv)
	}

	t.Run("reload", func(t *testing.T) {
		repo := t.TempDir()
		writeRepo(t, repo)
		fx := newFixture(t, fixtureOpts{cacheDir: t.TempDir(), repo: repo})
		requireServes(t, alphaReply(t, fx), orig, edited, "before the edit")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := fx.f.UnloadModel(ctx, "alpha"); err != nil {
			t.Fatal(err)
		}
		edit(t, repo)
		if err := fx.f.LoadModel(ctx, "alpha"); err != nil {
			t.Fatal(err)
		}
		requireServes(t, alphaReply(t, fx), edited, orig, "after the edit")
	})

	t.Run("restart", func(t *testing.T) {
		repo, cacheDir := t.TempDir(), t.TempDir()
		writeRepo(t, repo)
		cold := newFixture(t, fixtureOpts{cacheDir: cacheDir, repo: repo})
		requireServes(t, alphaReply(t, cold), orig, edited, "before the edit")
		closeFleet(t, cold)
		edit(t, repo)
		warm := newFixture(t, fixtureOpts{cacheDir: cacheDir, repo: repo})
		requireServes(t, alphaReply(t, warm), edited, orig, "after a restart")
	})
}
