package serve

import (
	"fmt"
	"sort"
	"sync"

	"godisc/internal/obs"
)

// latencyWindow bounds the latency sample buffer: percentiles are computed
// over the most recent latencyWindow completed requests.
const latencyWindow = 8192

// Stats is a point-in-time snapshot of serving counters.
type Stats struct {
	// Requests counts every Infer call; Completed the ones that returned
	// outputs. Rejected were refused by admission (queue full or server
	// closed), Canceled expired on their context, Failed hit any other
	// error (unknown model, compile failure, shape mismatch).
	Requests, Completed, Rejected, Canceled, Failed int64

	// CacheHits/CacheMisses count engine-cache lookups by executed
	// requests. Engines is the number of distinct (model, signature)
	// entries resident in memory. Compilations counts actual compiler
	// invocations — unlike CacheMisses it excludes engines loaded from the
	// persistent cache, so a warm restart over a populated cache dir keeps
	// it at zero.
	CacheHits, CacheMisses int64
	Engines                int
	Compilations           int64

	// Persistent engine cache activity (all zero without
	// Config.EngineCache). EngineLoads counts engines deserialized from
	// disk instead of compiled; EnginePersists entries written;
	// EngineCorrupt/EngineMismatch entries quarantined for damage or a
	// foreign compiler fingerprint.
	EngineLoads, EnginePersists   int64
	EngineCorrupt, EngineMismatch int64

	// Governance counters — each is a disjoint sub-bucket of Rejected
	// except WatchdogCancels (hung runs usually complete via fallback).
	// Shed counts queued waiters evicted for higher-priority arrivals and
	// QueueFullRejections arrivals refused with no sheddable victim (both
	// wrap ErrQueueFull); DeadlineInfeasible counts requests rejected
	// because their remaining deadline was below the moving queue+exec
	// estimate; QuotaRejections requests over their model's concurrency
	// quota; MemoryRejections runs refused by the memory governor.
	// WatchdogCancels counts runs the hung-request watchdog cancelled.
	Shed, QueueFullRejections, DeadlineInfeasible int64
	QuotaRejections, MemoryRejections             int64
	WatchdogCancels                               int64

	// Memory governor snapshot (zero when no budget is configured).
	// MemWaits counts reservations that had to queue for budget.
	MemBudgetBytes, MemReservedBytes, MemHighWaterBytes int64
	MemWaits                                            int64

	// Resilience counters. FallbackRuns are requests that completed
	// through the interpreter fallback after their engine failed (they
	// also count in Completed). Retries counts re-attempts after
	// transient errors. KernelPanics counts panics recovered during
	// engine execution. BreakerOpens counts closed/half-open → open
	// transitions; BreakerShortCircuits counts requests that found their
	// engine quarantined and went straight to fallback.
	FallbackRuns, Retries, KernelPanics int64
	BreakerOpens, BreakerShortCircuits  int64

	// Dynamic batching. BatchedRuns counts coalesced engine runs (two or
	// more members served by one run); BatchedRequests the requests those
	// runs served (they also count in Completed). Requests the batcher
	// handed back to the solo path appear only in the ordinary counters.
	BatchedRuns, BatchedRequests int64

	// QueueDepth is the current number of requests waiting for an
	// execution slot; PeakQueueDepth its high-water mark. InFlight and
	// PeakInFlight track executing requests the same way.
	QueueDepth, PeakQueueDepth int
	InFlight, PeakInFlight     int

	// P50SimNs and P99SimNs are percentiles of per-request simulated
	// execution latency over the recent completion window; TotalSimNs
	// accumulates all completed requests.
	P50SimNs, P99SimNs float64
	TotalSimNs         float64
}

// String renders the snapshot for logs and CLIs.
func (st Stats) String() string {
	s := fmt.Sprintf(
		"requests=%d completed=%d rejected=%d canceled=%d failed=%d | "+
			"engines=%d cache=%d/%d hit/miss | queue=%d (peak %d) inflight=%d (peak %d) | "+
			"p50=%.1fµs p99=%.1fµs total=%.2fms",
		st.Requests, st.Completed, st.Rejected, st.Canceled, st.Failed,
		st.Engines, st.CacheHits, st.CacheMisses,
		st.QueueDepth, st.PeakQueueDepth, st.InFlight, st.PeakInFlight,
		st.P50SimNs/1e3, st.P99SimNs/1e3, st.TotalSimNs/1e6)
	if st.FallbackRuns+st.Retries+st.KernelPanics+st.BreakerOpens > 0 {
		s += fmt.Sprintf(" | fallback=%d retries=%d panics=%d breaker=%d opens/%d shorted",
			st.FallbackRuns, st.Retries, st.KernelPanics, st.BreakerOpens, st.BreakerShortCircuits)
	}
	if st.BatchedRuns > 0 {
		s += fmt.Sprintf(" | batches=%d batched=%d", st.BatchedRuns, st.BatchedRequests)
	}
	if st.Shed+st.QueueFullRejections+st.DeadlineInfeasible+st.QuotaRejections+
		st.MemoryRejections+st.WatchdogCancels > 0 {
		s += fmt.Sprintf(" | shed=%d qfull=%d infeasible=%d quota=%d membudget=%d watchdog=%d",
			st.Shed, st.QueueFullRejections, st.DeadlineInfeasible, st.QuotaRejections,
			st.MemoryRejections, st.WatchdogCancels)
	}
	if st.MemBudgetBytes > 0 {
		s += fmt.Sprintf(" | mem=%d/%d high=%d waits=%d",
			st.MemReservedBytes, st.MemBudgetBytes, st.MemHighWaterBytes, st.MemWaits)
	}
	if st.EngineLoads+st.EnginePersists+st.EngineCorrupt+st.EngineMismatch > 0 {
		s += fmt.Sprintf(" | enginecache=%d loaded/%d persisted corrupt=%d mismatch=%d compilations=%d",
			st.EngineLoads, st.EnginePersists, st.EngineCorrupt, st.EngineMismatch, st.Compilations)
	}
	return s
}

// collector is the serving stats backend, built on an obs.Registry: every
// counter is a registered metric series (cached handle, so increments are
// lock-free atomics), which means the Stats snapshot and the /metrics
// scrape are two views of the same numbers and can never disagree. The
// mutex survives only where atomicity with admission logic requires it:
// the queue-depth-vs-limit check, the in-flight/queue peaks, and the
// bounded latency sample window percentiles are computed over.
type collector struct {
	reg *obs.Registry

	cRequests, cCompleted, cRejected, cCanceled, cFailed *obs.Counter
	cHits, cMisses                                       *obs.Counter
	cFallback, cRetries, cPanics                         *obs.Counter
	cBreakerOpens, cBreakerShorted                       *obs.Counter
	cShed, cQueueFull, cInfeasible, cQuota, cMemory      *obs.Counter
	cWatchdog                                            *obs.Counter
	cBatchOK, cBatchSolo, cBatchErr, cBatchedReqs        *obs.Counter
	cCompilations                                        *obs.Counter
	hLatency, hBatchSize, hBatchLinger                   *obs.Histogram

	mu                     sync.Mutex
	queueDepth, peakQueue  int
	inFlight, peakInFlight int
	totalSimNs             float64
	samples                []float64
	next                   int
}

// newCollector builds the backend on reg; a nil reg gets a private
// registry so the Stats API works without observability configured.
func newCollector(reg *obs.Registry) *collector {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &collector{
		reg:             reg,
		cRequests:       reg.Counter("godisc_requests_total"),
		cCompleted:      reg.Counter("godisc_requests_outcome_total", obs.L("outcome", "completed")),
		cRejected:       reg.Counter("godisc_requests_outcome_total", obs.L("outcome", "rejected")),
		cCanceled:       reg.Counter("godisc_requests_outcome_total", obs.L("outcome", "canceled")),
		cFailed:         reg.Counter("godisc_requests_outcome_total", obs.L("outcome", "failed")),
		cHits:           reg.Counter("godisc_cache_lookups_total", obs.L("result", "hit")),
		cMisses:         reg.Counter("godisc_cache_lookups_total", obs.L("result", "miss")),
		cFallback:       reg.Counter("godisc_fallback_total"),
		cRetries:        reg.Counter("godisc_retries_total"),
		cPanics:         reg.Counter("godisc_kernel_panics_total"),
		cBreakerOpens:   reg.Counter("godisc_breaker_transitions_total", obs.L("to", "open")),
		cBreakerShorted: reg.Counter("godisc_breaker_short_circuits_total"),
		cShed:           reg.Counter("godisc_admission_rejects_total", obs.L("reason", "shed")),
		cQueueFull:      reg.Counter("godisc_admission_rejects_total", obs.L("reason", "queue-full")),
		cInfeasible:     reg.Counter("godisc_admission_rejects_total", obs.L("reason", "deadline-infeasible")),
		cQuota:          reg.Counter("godisc_admission_rejects_total", obs.L("reason", "quota")),
		cMemory:         reg.Counter("godisc_admission_rejects_total", obs.L("reason", "memory-budget")),
		cWatchdog:       reg.Counter("godisc_watchdog_cancels_total"),
		cBatchOK:        reg.Counter("godisc_batches_total", obs.L("outcome", "ok")),
		cBatchSolo:      reg.Counter("godisc_batches_total", obs.L("outcome", "solo")),
		cBatchErr:       reg.Counter("godisc_batches_total", obs.L("outcome", "error")),
		cBatchedReqs:    reg.Counter("godisc_batched_requests_total"),
		cCompilations:   reg.Counter("godisc_compilations_total"),
		hLatency:        reg.Histogram("godisc_latency_sim_ns", obs.LatencyNsBuckets()),
		hBatchSize:      reg.Histogram("godisc_batch_size", obs.ExpBuckets(1, 2, 10)),
		hBatchLinger:    reg.Histogram("godisc_batch_linger_ns", obs.LatencyNsBuckets()),
		samples:         make([]float64, 0, 256),
	}
	reg.GaugeFunc("godisc_queue_depth", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.queueDepth)
	})
	reg.GaugeFunc("godisc_inflight", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.inFlight)
	})
	return c
}

func (c *collector) request()   { c.cRequests.Inc() }
func (c *collector) rejected()  { c.cRejected.Inc() }
func (c *collector) canceled()  { c.cCanceled.Inc() }
func (c *collector) failed()    { c.cFailed.Inc() }
func (c *collector) cacheHit()  { c.cHits.Inc() }
func (c *collector) cacheMiss() { c.cMisses.Inc() }

// compilation records one actual compiler invocation (not a persistent-
// cache load).
func (c *collector) compilation() { c.cCompilations.Inc() }

func (c *collector) retry()          { c.cRetries.Inc() }
func (c *collector) kernelPanic()    { c.cPanics.Inc() }
func (c *collector) breakerOpened()  { c.cBreakerOpens.Inc() }
func (c *collector) breakerShorted() { c.cBreakerShorted.Inc() }

// Governance rejections: each increments the outcome counter (Rejected)
// plus its reason series, so the taxonomy partitions Rejected exactly.
func (c *collector) shed()               { c.cRejected.Inc(); c.cShed.Inc() }
func (c *collector) queueFullRejected()  { c.cRejected.Inc(); c.cQueueFull.Inc() }
func (c *collector) infeasibleRejected() { c.cRejected.Inc(); c.cInfeasible.Inc() }
func (c *collector) quotaRejected()      { c.cRejected.Inc(); c.cQuota.Inc() }
func (c *collector) memoryRejected()     { c.cRejected.Inc(); c.cMemory.Inc() }
func (c *collector) watchdogFired()      { c.cWatchdog.Inc() }

// batchRun records one flushed coalescing window by outcome: "ok" (one
// engine run served every member), "solo" (nothing coalesced, or the
// members were handed back before the run), "error" (the batched run
// failed and the members were handed back). The batch-size histogram
// observes the stacked row extent of real coalesced runs only.
func (c *collector) batchRun(outcome string, rows int) {
	switch outcome {
	case "ok":
		c.cBatchOK.Inc()
		c.hBatchSize.Observe(float64(rows))
	case "error":
		c.cBatchErr.Inc()
	default:
		c.cBatchSolo.Inc()
	}
}

// batchedRequest records one request served through a coalesced run, plus
// the time it spent lingering in the window (join → flush).
func (c *collector) batchedRequest(lingerNs float64) {
	c.cBatchedReqs.Inc()
	c.hBatchLinger.Observe(lingerNs)
}

// fallback records one request completed through the interpreter fallback;
// it contributes to Completed and the latency window like a normal
// completion.
func (c *collector) fallback(simNs float64) {
	c.cFallback.Inc()
	c.completed(simNs)
}

// completed records one successful request and its simulated latency.
func (c *collector) completed(simNs float64) {
	c.cCompleted.Inc()
	c.hLatency.Observe(simNs)
	c.mu.Lock()
	c.totalSimNs += simNs
	if len(c.samples) < latencyWindow {
		c.samples = append(c.samples, simNs)
	} else {
		c.samples[c.next] = simNs
		c.next = (c.next + 1) % latencyWindow
	}
	c.mu.Unlock()
}

// observeSignature records a completion's simulated latency into the
// per-(model, signature) histogram — the "latency by cache key" series
// that makes shape-bucket regressions visible per compiled engine.
func (c *collector) observeSignature(model, sig string, simNs float64) {
	c.reg.Histogram("godisc_request_sim_ns", obs.LatencyNsBuckets(),
		obs.L("model", model), obs.L("signature", sig)).Observe(simNs)
}

// running tracks executing requests (+1 on slot acquire, -1 on release).
func (c *collector) running(delta int) {
	c.mu.Lock()
	c.inFlight += delta
	if c.inFlight > c.peakInFlight {
		c.peakInFlight = c.inFlight
	}
	c.mu.Unlock()
}

// enqueued/dequeued track the admission queue depth; the limit check
// itself lives in the admitter, whose lock makes depth-vs-limit atomic.
func (c *collector) enqueued() {
	c.mu.Lock()
	c.queueDepth++
	if c.queueDepth > c.peakQueue {
		c.peakQueue = c.queueDepth
	}
	c.mu.Unlock()
}

func (c *collector) dequeued() {
	c.mu.Lock()
	c.queueDepth--
	c.mu.Unlock()
}

// snapshot computes the exported view: counters read back from their
// registry series, percentiles over the recent latency window.
func (c *collector) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Requests: c.cRequests.Value(), Completed: c.cCompleted.Value(),
		Rejected: c.cRejected.Value(), Canceled: c.cCanceled.Value(),
		Failed:    c.cFailed.Value(),
		CacheHits: c.cHits.Value(), CacheMisses: c.cMisses.Value(),
		Compilations: c.cCompilations.Value(),
		FallbackRuns: c.cFallback.Value(), Retries: c.cRetries.Value(),
		KernelPanics: c.cPanics.Value(),
		BreakerOpens: c.cBreakerOpens.Value(), BreakerShortCircuits: c.cBreakerShorted.Value(),
		Shed: c.cShed.Value(), QueueFullRejections: c.cQueueFull.Value(),
		DeadlineInfeasible: c.cInfeasible.Value(), QuotaRejections: c.cQuota.Value(),
		MemoryRejections: c.cMemory.Value(), WatchdogCancels: c.cWatchdog.Value(),
		BatchedRuns: c.cBatchOK.Value(), BatchedRequests: c.cBatchedReqs.Value(),
		QueueDepth: c.queueDepth, PeakQueueDepth: c.peakQueue,
		InFlight: c.inFlight, PeakInFlight: c.peakInFlight,
		TotalSimNs: c.totalSimNs,
	}
	if len(c.samples) > 0 {
		sorted := append([]float64(nil), c.samples...)
		sort.Float64s(sorted)
		st.P50SimNs = percentile(sorted, 0.50)
		st.P99SimNs = percentile(sorted, 0.99)
	}
	return st
}

// percentile reads the p-quantile from a sorted sample (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
