package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"godisc/internal/enginecache"
	"godisc/internal/exec"
	"godisc/internal/faultinject"
	"godisc/internal/graph"
	"godisc/internal/servetest"
	"godisc/internal/tensor"
)

// cacheCodecs adapts the shared servetest codec pair to this layer's
// Engine interface (A10, default exec options — what the public layer
// installs).
func cacheCodecs() (func([]byte) (Engine, error), func(Engine) ([]byte, error)) {
	dec := func(payload []byte) (Engine, error) {
		return servetest.DecodeExecutable(payload)
	}
	enc := func(e Engine) ([]byte, error) {
		return servetest.EncodeExecutable(e)
	}
	return dec, enc
}

// TestCacheFaultsDegradeToMiss arms the cache-read and cache-write probes
// at rate 1.0: every load degrades to a recompile and every persist is
// dropped, but no request may fail.
func TestCacheFaultsDegradeToMiss(t *testing.T) {
	inj, err := faultinject.FromSpec("cache-read:transient:1.0,cache-write:transient:1.0", 11)
	if err != nil {
		t.Fatal(err)
	}
	dec, enc := cacheCodecs()
	ec := servetest.OpenCache(t, t.TempDir())
	ec.SetFaults(inj)

	var compiles int32
	s := New(Config{
		MaxConcurrent: 4,
		EngineCache:   ec, DecodeEngine: dec, EncodeEngine: enc,
	}, realCompile(&compiles))
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}

	r := tensor.NewRNG(7)
	for i := 0; i < 4; i++ {
		if _, err := s.Infer(context.Background(), &Request{
			Model: "mlp", Inputs: []*tensor.Tensor{tensor.RandN(r, 0.5, 2+i, 12)},
		}); err != nil {
			t.Fatalf("request %d must survive cache faults: %v", i, err)
		}
	}
	st := ec.Stats()
	if st.ReadErr == 0 || st.WriteErr == 0 {
		t.Fatalf("both cache probes must have fired: %+v", st)
	}
	if st.Persists != 0 || st.Hits != 0 {
		t.Fatalf("all cache IO must have been rejected: %+v", st)
	}
	if n := atomic.LoadInt32(&compiles); n != 1 {
		t.Fatalf("singleflight must still bound compilations, got %d", n)
	}
}

// TestCachePersistLoadAcrossServers is the serve-layer restart check: a
// second server sharing the cache serves without its compile function
// ever being invoked.
func TestCachePersistLoadAcrossServers(t *testing.T) {
	dec, enc := cacheCodecs()
	dir := t.TempDir()
	ecA := servetest.OpenCache(t, dir)
	var compilesA int32
	a := New(Config{MaxConcurrent: 2, EngineCache: ecA, DecodeEngine: dec, EncodeEngine: enc},
		realCompile(&compilesA))
	if err := a.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(9)
	if _, err := a.Infer(context.Background(), &Request{
		Model: "mlp", Inputs: []*tensor.Tensor{tensor.RandN(r, 0.5, 4, 12)},
	}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if atomic.LoadInt32(&compilesA) != 1 {
		t.Fatalf("first server must compile once, got %d", compilesA)
	}

	ecB := servetest.OpenCache(t, dir)
	var compilesB int32
	b := New(Config{MaxConcurrent: 2, EngineCache: ecB, DecodeEngine: dec, EncodeEngine: enc},
		realCompile(&compilesB))
	defer b.Close()
	if err := b.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Infer(context.Background(), &Request{
		Model: "mlp", Inputs: []*tensor.Tensor{tensor.RandN(r, 0.5, 6, 12)},
	}); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&compilesB) != 0 {
		t.Fatalf("second server must serve from disk, got %d compiles", compilesB)
	}
	st := b.Stats()
	if st.EngineLoads != 1 {
		t.Fatalf("second server must load the persisted engine: %+v", st)
	}
}

// TestPersistBatchVerdictOnlyWhenBatching: with batching off (the
// discserve default) a cold compile persists its engine without the
// batchability verdict, so it builds one graph fewer: one for the
// signature and one to compile, where the analysis made it three. A
// batching server that loads such an entry derives the verdict itself and
// gets what a fresh analysis gives; one that compiles persists it.
func TestPersistBatchVerdictOnlyWhenBatching(t *testing.T) {
	dec, enc := cacheCodecs()
	dir := t.TempDir()
	var builds int32
	counting := func() *graph.Graph {
		atomic.AddInt32(&builds, 1)
		return buildMLP()
	}
	infer := func(s *Server) {
		t.Helper()
		if _, err := s.Infer(context.Background(), &Request{
			Model: "mlp", Inputs: []*tensor.Tensor{tensor.RandN(tensor.NewRNG(4), 0.5, 3, 12)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	entry := func(s *Server, dir string) *enginecache.Entry {
		t.Helper()
		m, err := s.lookup("mlp")
		if err != nil {
			t.Fatal(err)
		}
		sig, err := m.signature()
		if err != nil {
			t.Fatal(err)
		}
		ent, err := servetest.OpenCache(t, dir).Load(m.key(sig))
		if ent == nil {
			t.Fatalf("no persisted entry: %v", err)
		}
		return ent
	}
	want := analyzeBatchable(buildMLP())
	if !want.ok {
		t.Fatalf("mlp must be batchable: %+v", want)
	}

	var compiles int32
	off := New(Config{MaxConcurrent: 2, EngineCache: servetest.OpenCache(t, dir), DecodeEngine: dec, EncodeEngine: enc},
		realCompile(&compiles))
	if err := off.Register("mlp", counting); err != nil {
		t.Fatal(err)
	}
	infer(off)
	off.Close()
	if n := atomic.LoadInt32(&builds); n != 2 {
		t.Fatalf("cold load with batching off built %d graphs, want 2", n)
	}
	if ent := entry(off, dir); ent.BatchKnown {
		t.Fatalf("batching-off server persisted a verdict: %+v", ent)
	}

	on := New(Config{MaxConcurrent: 2, MaxBatchSize: 8,
		EngineCache: servetest.OpenCache(t, dir), DecodeEngine: dec, EncodeEngine: enc}, realCompile(&compiles))
	defer on.Close()
	if err := on.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	infer(on)
	if n := atomic.LoadInt32(&compiles); n != 1 {
		t.Fatalf("batching server must load the persisted engine, %d compiles", n)
	}
	m, err := on.lookup("mlp")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.batchable(); got != want {
		t.Fatalf("verdict derived after loading an unknown one: %+v, fresh analysis: %+v", got, want)
	}

	freshDir := t.TempDir()
	fresh := New(Config{MaxConcurrent: 2, MaxBatchSize: 8,
		EngineCache: servetest.OpenCache(t, freshDir), DecodeEngine: dec, EncodeEngine: enc}, realCompile(nil))
	defer fresh.Close()
	if err := fresh.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	infer(fresh)
	ent := entry(fresh, freshDir)
	if got := (batchInfo{ok: ent.Batchable, reason: ent.BatchReason, maxRows: ent.BatchMaxRows}); !ent.BatchKnown || got != want {
		t.Fatalf("batching server persisted known=%v %+v, want %+v", ent.BatchKnown, got, want)
	}
}

// pinCheckEngine wraps a decoded engine with a probe that runs inside
// RunContext, i.e. while the request is using the engine.
type pinCheckEngine struct {
	Engine
	inRun func()
}

func (e pinCheckEngine) RunContext(ctx context.Context, inputs []*tensor.Tensor) (*exec.Result, error) {
	e.inRun()
	return e.Engine.RunContext(ctx, inputs)
}

// TestWarmCacheRunsPinnedUnderEviction: with the persistent cache warm,
// clients keep meeting a first-seen signature (an evictor empties the
// in-memory slot as fast as it can), so engines are reloaded from disk
// under the singleflight while other clients run on them. Every run on a
// decoded engine must observe its cache entry pinned — the invariant
// EvictEngine's callers rely on to release an engine's memory.
func TestWarmCacheRunsPinnedUnderEviction(t *testing.T) {
	dec, enc := cacheCodecs()
	dir := t.TempDir()
	warm := New(Config{
		MaxConcurrent: 2,
		EngineCache:   servetest.OpenCache(t, dir), DecodeEngine: dec, EncodeEngine: enc,
	}, realCompile(nil))
	if err := warm.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	if err := warm.Warm("mlp"); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	var (
		s              *Server
		key            string
		runs, unpinned atomic.Int32
		compiles       int32
	)
	pinDec := func(payload []byte) (Engine, error) {
		eng, err := dec(payload)
		if err != nil {
			return nil, err
		}
		return pinCheckEngine{eng, func() {
			runs.Add(1)
			if s.cache.Pins(key) == 0 {
				unpinned.Add(1)
			}
		}}, nil
	}
	s = New(Config{
		MaxConcurrent: 8,
		EngineCache:   servetest.OpenCache(t, dir), DecodeEngine: pinDec, EncodeEngine: enc,
	}, realCompile(&compiles))
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	key, err := s.EngineKey("mlp")
	if err != nil {
		t.Fatal(err)
	}

	// A background evictor races the requests; between rounds, with every
	// pin dropped, the slot is emptied for certain, so each round opens on
	// a first-seen signature however the scheduler treats the evictor.
	var evictions atomic.Int32
	evict := func() {
		if evicted, _ := s.EvictEngine(key); evicted {
			evictions.Add(1)
		}
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				evict()
			}
		}
	}()

	const clients, rounds, perRound = 8, 10, 4
	for round := 0; round < rounds; round++ {
		evict()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := tensor.NewRNG(uint64(100*round + c))
				for i := 0; i < perRound; i++ {
					resp, err := s.Infer(context.Background(), &Request{
						Model: "mlp", Inputs: []*tensor.Tensor{tensor.RandN(r, 0.5, 1+i, 12)},
					})
					if err != nil {
						t.Errorf("round %d client %d: %v", round, c, err)
						return
					}
					if resp.Fallback {
						t.Errorf("round %d client %d: served by the interpreter over a warm cache", round, c)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	close(stop)
	<-stopped
	servetest.Drain(t, s)

	if n := runs.Load(); n != clients*rounds*perRound {
		t.Fatalf("%d of %d requests ran on a decoded engine", n, clients*rounds*perRound)
	}
	if n := unpinned.Load(); n != 0 {
		t.Fatalf("%d runs executed with no pin on their cache entry", n)
	}
	if n := s.cache.Pins(key); n != 0 {
		t.Fatalf("%d pins leaked after drain", n)
	}
	if n := atomic.LoadInt32(&compiles); n != 0 {
		t.Fatalf("warm cache must serve without compiling, got %d compiles", n)
	}
	if n := evictions.Load(); n < rounds-1 {
		t.Fatalf("%d evictions over %d rounds: some round did not open on an empty slot", n, rounds)
	}
}
