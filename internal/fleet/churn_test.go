package fleet_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"godisc"
	"godisc/internal/fleet"
)

// churnSample is what one load/infer/unload round leaves behind.
type churnSample struct {
	heap        uint64 // live heap after GC
	goroutines  int
	metricLines int
	poolAllocs  float64 // scraped godisc_pool_allocs_total
}

// TestChurnLeakInvariant is the standing model-churn leak check. A server
// built exactly as discserve builds one (godisc.NewServer on a persistent
// engine cache, one metrics registry shared with the fleet) runs rounds
// of LoadModel → infer every version → UnloadModel over the fixture
// repository. The first round compiles, later rounds decode cached
// images, so both engine constructors are covered. After warm-up, every
// round must leave the same footprint: flat live heap (within a generous
// tolerance), goroutines, /metrics lines and pool allocations, with
// nothing checked out of the server's buffer pool. An engine that stays
// reachable after unload — a pool pinned by a metrics callback, say —
// shows up as allocations and heap that grow with rounds.
func TestChurnLeakInvariant(t *testing.T) {
	const (
		warmup = 3
		rounds = 15
		batch  = 64 // the fixture's declared maximum, so pools hold real buffers
		// heapSlack bounds live-heap drift across the measured rounds. It
		// is generous on purpose: drift on a healthy server is a few KB
		// over all rounds, while one pinned pool per engine grew the heap
		// by ~85 KB every round on these models.
		heapSlack = 512 << 10
	)
	repo := t.TempDir()
	fleet.WriteRepo(t, repo)
	reg := godisc.NewMetrics()
	srv := godisc.NewServer(godisc.ServerConfig{
		MaxConcurrent: 2,
		CacheDir:      t.TempDir(),
		Metrics:       reg,
	})
	fl, err := godisc.NewFleet(godisc.FleetConfig{Server: srv, Repo: repo, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fl)
	client := ts.Client()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = fl.Close(ctx)
		_ = srv.Shutdown(ctx)
	})

	widths := fleet.FixtureWidths()
	names := make([]string, 0, len(widths))
	for name := range widths {
		names = append(names, name)
	}
	sort.Strings(names)

	post := func(path string, body []byte) {
		t.Helper()
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, payload)
		}
	}
	round := func(r int) churnSample {
		t.Helper()
		ctx := context.Background()
		for _, name := range names {
			if err := fl.LoadModel(ctx, name); err != nil {
				t.Fatalf("round %d: load %s: %v", r, name, err)
			}
			body := fleet.F32Request(t, []int64{batch, int64(widths[name])},
				fleet.RandInput(uint64(r), batch, widths[name]))
			for _, v := range []string{"1", "2"} {
				post("/v2/models/"+name+"/versions/"+v+"/infer", body)
			}
			if err := fl.UnloadModel(ctx, name); err != nil {
				t.Fatalf("round %d: unload %s: %v", r, name, err)
			}
		}
		if st := srv.BufferPool().Stats(); st.InUseElems != 0 {
			t.Fatalf("round %d: server pool holds %d elems after every model unloaded", r, st.InUseElems)
		}
		var s churnSample
		s.metricLines, s.poolAllocs = scrape(t, client, ts.URL)
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.heap = ms.HeapAlloc
		s.goroutines = runtime.NumGoroutine()
		return s
	}

	for r := 0; r < warmup; r++ {
		round(r)
	}
	base := round(warmup)
	last := base
	defer func() { t.Logf("after warm-up %+v, last round %+v", base, last) }()
	for r := warmup + 1; r <= warmup+rounds; r++ {
		s := round(r)
		last = s
		if s.poolAllocs != base.poolAllocs {
			t.Fatalf("round %d: godisc_pool_allocs_total %v, %v after warm-up: buffers are allocated anew each round",
				r, s.poolAllocs, base.poolAllocs)
		}
		if s.metricLines != base.metricLines {
			t.Fatalf("round %d: /metrics has %d lines, %d after warm-up", r, s.metricLines, base.metricLines)
		}
		if s.goroutines > base.goroutines {
			// A goroutine that is still winding down (an HTTP connection
			// closing, a timer firing) is not a leak: give the count a
			// bounded time to settle back to the warm-up count, and
			// record what was running when it had to.
			extra := goroutineDump()
			n := settleGoroutines(base.goroutines, 2*time.Second)
			if n > base.goroutines {
				t.Fatalf("round %d: %d goroutines, %d after warm-up; goroutines:\n%s",
					r, n, base.goroutines, goroutineDump())
			}
			t.Logf("round %d: %d goroutines settled to %d; while above:\n%s", r, s.goroutines, n, extra)
		}
		if s.heap > base.heap+heapSlack {
			t.Fatalf("round %d: live heap %d B, %d B after warm-up (slack %d B)", r, s.heap, base.heap, heapSlack)
		}
	}
}

// settleGoroutines waits up to d for the goroutine count to fall to want
// and returns the last count seen.
func settleGoroutines(want int, d time.Duration) int {
	deadline := time.Now().Add(d)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// goroutineDump returns every goroutine's stack, grouped by stack.
func goroutineDump() string {
	var b strings.Builder
	_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
	return b.String()
}

// scrape reads /metrics and returns its line count and the summed value
// of godisc_pool_allocs_total.
func scrape(t *testing.T, client *http.Client, url string) (lines int, poolAllocs float64) {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	found := false
	for sc.Scan() {
		lines++
		line := sc.Text()
		if !strings.HasPrefix(line, "godisc_pool_allocs_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("/metrics: %q: %v", line, err)
		}
		poolAllocs += v
		found = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("/metrics has no godisc_pool_allocs_total series")
	}
	return lines, poolAllocs
}
