package godisc

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"godisc/internal/servetest"
)

// buildPublicSofty is a second zoo-independent model with its own name and
// a two-axis dynamic signature, so restart tests cover multiple cache
// entries per directory.
func buildPublicSofty() *Graph {
	g := NewGraph("softy")
	b := g.Ctx.NewDim("B")
	s := g.Ctx.NewDim("S")
	x := g.Parameter("x", F32, Shape{b, s})
	g.SetOutputs(g.Softmax(g.Tanh(x)))
	return g
}

// cacheTestServer registers both restart-test models on a fresh server.
func cacheTestServer(t *testing.T, cfg ServerConfig, opts ...Option) *Server {
	t.Helper()
	srv := NewServer(cfg, opts...)
	if err := srv.Register("mlp", func() *Graph { return buildPublicMLP() }); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("softy", func() *Graph { return buildPublicSofty() }); err != nil {
		t.Fatal(err)
	}
	return srv
}

// replayRestartTrace sends a deterministic request mix and returns every
// output's raw float32 data, for bit-identical comparison across restarts.
func replayRestartTrace(t *testing.T, srv *Server) [][]float32 {
	t.Helper()
	var outs [][]float32
	for _, batch := range []int{1, 3, 8} {
		resp, err := srv.Infer(context.Background(), &Request{
			Model:  "mlp",
			Inputs: []*Tensor{RandN(uint64(100+batch), 1, batch, 8)},
		})
		if err != nil {
			t.Fatalf("mlp batch %d: %v", batch, err)
		}
		outs = append(outs, append([]float32(nil), resp.Outputs[0].F32()...))
	}
	for _, bs := range [][2]int{{2, 5}, {4, 9}} {
		resp, err := srv.Infer(context.Background(), &Request{
			Model:  "softy",
			Inputs: []*Tensor{RandN(uint64(200+bs[0]), 1, bs[0], bs[1])},
		})
		if err != nil {
			t.Fatalf("softy %v: %v", bs, err)
		}
		outs = append(outs, append([]float32(nil), resp.Outputs[0].F32()...))
	}
	return outs
}

func shutdownServer(t *testing.T, srv *Server) {
	t.Helper()
	servetest.Drain(t, srv)
}

// TestEngineCacheWarmRestart is the headline persistence check: a second
// server on the same cache directory must serve the whole trace from disk
// — zero compiler invocations — and produce bit-identical outputs.
func TestEngineCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()

	cold := cacheTestServer(t, ServerConfig{MaxConcurrent: 4}, WithEngineCache(dir))
	coldOuts := replayRestartTrace(t, cold)
	cst := cold.Stats()
	if cst.Compilations == 0 || cst.EnginePersists == 0 {
		t.Fatalf("cold server must compile and persist: %+v", cst)
	}
	shutdownServer(t, cold)

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var engFiles int
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".eng" {
			engFiles++
		}
	}
	if engFiles != 2 {
		t.Fatalf("want 2 persisted engines, got %d: %v", engFiles, ents)
	}

	warm := cacheTestServer(t, ServerConfig{MaxConcurrent: 4}, WithEngineCache(dir))
	warmOuts := replayRestartTrace(t, warm)
	wst := warm.Stats()
	if wst.Compilations != 0 {
		t.Fatalf("warm restart must not invoke the compiler: %d compilations", wst.Compilations)
	}
	if wst.EngineLoads != 2 {
		t.Fatalf("warm restart must load both engines from disk: %+v", wst)
	}
	shutdownServer(t, warm)

	if len(coldOuts) != len(warmOuts) {
		t.Fatalf("trace lengths differ: %d vs %d", len(coldOuts), len(warmOuts))
	}
	for i := range coldOuts {
		if len(coldOuts[i]) != len(warmOuts[i]) {
			t.Fatalf("output %d: length %d vs %d", i, len(coldOuts[i]), len(warmOuts[i]))
		}
		for j := range coldOuts[i] {
			if math.Float32bits(coldOuts[i][j]) != math.Float32bits(warmOuts[i][j]) {
				t.Fatalf("output %d[%d]: %x vs %x — warm restart must be bit-identical",
					i, j, coldOuts[i][j], warmOuts[i][j])
			}
		}
	}
}

// TestEngineCacheFingerprintBump proves a config change invalidates the
// cache safely: entries persisted under one device are quarantined — not
// served — by a server compiled for another, which recompiles instead.
func TestEngineCacheFingerprintBump(t *testing.T) {
	dir := t.TempDir()

	a10 := cacheTestServer(t, ServerConfig{MaxConcurrent: 4},
		WithEngineCache(dir), WithDevice(A10()))
	replayRestartTrace(t, a10)
	shutdownServer(t, a10)

	t4 := cacheTestServer(t, ServerConfig{MaxConcurrent: 4},
		WithEngineCache(dir), WithDevice(T4()))
	replayRestartTrace(t, t4)
	st := t4.Stats()
	shutdownServer(t, t4)

	if st.EngineMismatch != 2 {
		t.Fatalf("both stale entries must be fingerprint-mismatched: %+v", st)
	}
	if st.Compilations != 2 || st.EngineLoads != 0 {
		t.Fatalf("stale entries must be recompiled, never served: %+v", st)
	}
	bad, err := os.ReadDir(filepath.Join(dir, ".bad"))
	if err != nil || len(bad) != 2 {
		t.Fatalf("stale entries must be quarantined to .bad/: %v %v", bad, err)
	}
}

// TestEngineCacheCorruptEntry flips bytes in a persisted engine and
// restarts: the damaged entry must be quarantined and recompiled without
// any request failing.
func TestEngineCacheCorruptEntry(t *testing.T) {
	dir := t.TempDir()

	cold := cacheTestServer(t, ServerConfig{MaxConcurrent: 4}, WithEngineCache(dir))
	replayRestartTrace(t, cold)
	shutdownServer(t, cold)

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var damaged int
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".eng" || damaged > 0 {
			continue
		}
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(data) / 2; i < len(data); i += 97 {
			data[i] ^= 0x5a
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged != 1 {
		t.Fatalf("expected to damage one entry, got %d", damaged)
	}

	warm := cacheTestServer(t, ServerConfig{MaxConcurrent: 4}, WithEngineCache(dir))
	replayRestartTrace(t, warm)
	st := warm.Stats()
	shutdownServer(t, warm)

	if st.EngineCorrupt != 1 {
		t.Fatalf("damaged entry must be detected: %+v", st)
	}
	if st.Compilations != 1 || st.EngineLoads != 1 {
		t.Fatalf("one recompile + one disk load wanted: %+v", st)
	}
	if bad, err := os.ReadDir(filepath.Join(dir, ".bad")); err != nil || len(bad) != 1 {
		t.Fatalf("damaged entry must be quarantined: %v %v", bad, err)
	}
}
