// The rollout controller: health-gated canary promotion with automatic
// rollback (see DESIGN.md §16).
//
// When rollouts are enabled and the watcher (or a load call) introduces a
// new version of a model that already has a serving default, the new
// version does NOT take the default pin immediately. It enters CANARY:
//
//   - split mode: every Nth default-pin request (N ≈ 1/CanaryFraction)
//     is routed to the canary; a canary-routed request that fails with a
//     server-class error is transparently re-served on the stable
//     version, so default-pin traffic never sees a canary 5xx;
//   - shadow mode: every Nth default-pin request is served by the stable
//     version AND re-run on the canary; the two responses are compared
//     bit-wise on the wire encoding. Mismatches are regressions; the
//     client always receives the stable bytes.
//
// The canary is promoted to the default pin after PromoteAfter
// successful canary requests with its error-rate EWMA under
// MaxErrorRate. Any hard regression — a watchdog cancel, a breaker
// opening (or found open), a shadow mismatch — or a judged EWMA over the
// threshold triggers automatic rollback: the canary is quarantined
// (requests to it shed with discerr.ErrVersionQuarantined until a
// half-open probe revives it) and the default pin stays on the prior
// version. A newer version dropping mid-rollout aborts the current one.
package fleet

import (
	"strings"
	"time"

	"godisc/internal/obs"
	"godisc/internal/serve"
)

// RolloutConfig parameterizes the canary rollout controller.
type RolloutConfig struct {
	// Enabled turns the controller on. Off (the default), a new version
	// takes the default pin immediately — PR 9's behavior.
	Enabled bool
	// CanaryFraction is the share of default-pin traffic routed to (or,
	// in shadow mode, mirrored onto) the canary. Default 0.1.
	CanaryFraction float64
	// PromoteAfter is how many successful canary requests are required
	// before promotion. Default 50.
	PromoteAfter int
	// MaxErrorRate is the error-rate EWMA threshold: a judged canary
	// above it rolls back, below it (with PromoteAfter successes) it
	// promotes. Default 0.1.
	MaxErrorRate float64
	// EWMAAlpha is the EWMA smoothing factor. Default 0.2.
	EWMAAlpha float64
	// MinSamples is how many outcomes a version must accumulate before
	// its EWMA is judged at all. Default 10.
	MinSamples int
	// Shadow selects shadow mode: the canary mirrors sampled stable
	// traffic instead of serving it, and bit-wise output comparison
	// gates promotion.
	Shadow bool
	// ProbeCooldown is how long a quarantined version waits before one
	// half-open probe request is admitted. Default 15s.
	ProbeCooldown time.Duration
}

// withDefaults fills the zero values.
func (c RolloutConfig) withDefaults() RolloutConfig {
	if c.CanaryFraction <= 0 || c.CanaryFraction > 1 {
		c.CanaryFraction = 0.1
	}
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 50
	}
	if c.MaxErrorRate <= 0 || c.MaxErrorRate >= 1 {
		c.MaxErrorRate = 0.1
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.2
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.ProbeCooldown <= 0 {
		c.ProbeCooldown = 15 * time.Second
	}
	return c
}

// rollout is one in-flight canary. Guarded by Fleet.mu.
type rollout struct {
	model  string
	canary string // version under evaluation (state CANARY)
	prior  string // stable version holding the default pin
	served int    // successful canary requests so far
	ticker uint64 // default-pin request counter for the traffic split
	every  uint64 // route (or shadow) every `every`-th request
}

// RolloutStats is a point-in-time snapshot of the controller, reported
// by discserve at shutdown.
type RolloutStats struct {
	Started, Promoted, RolledBack, Aborted int64
	ShadowMatches, ShadowMismatches        int64
	// Active lists in-flight rollouts as "model: canary vs prior".
	Active []string
	// Quarantined lists quarantined versions as "model:version".
	Quarantined []string
}

// rolloutOutcome increments both the internal counter and the
// godisc_fleet_rollouts_total{outcome} metric. Caller holds f.mu.
func (f *Fleet) rolloutOutcome(outcome string, n *int64) {
	*n++
	f.reg.Counter("godisc_fleet_rollouts_total", obs.L("outcome", outcome)).Inc()
}

// setHealthGauge publishes mv's lattice state on
// godisc_fleet_version_health{model,version}. Caller holds f.mu.
func (f *Fleet) setHealthGauge(mv *modelVersion) {
	f.reg.Gauge("godisc_fleet_version_health",
		obs.L("model", mv.model), obs.L("version", mv.version)).Set(healthValue(mv.health.state))
}

// splitEvery converts a traffic fraction to a deterministic counter
// period: route every Nth request, N = round(1/fraction).
func splitEvery(fraction float64) uint64 {
	n := uint64(1/fraction + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// startRollout begins canarying `canary` against the current default.
// Caller holds f.mu; the canary's state flips to CANARY so the index and
// readiness surfaces show the transition. An already-running rollout for
// the model is aborted — its canary rejoins the version set as a plain
// READY non-default version.
func (f *Fleet) startRollout(fm *fleetModel, canary string) {
	if ro := f.rollouts[fm.name]; ro != nil {
		if old := fm.versions[ro.canary]; old != nil && old.state == StateCanary {
			old.state = StateReady
		}
		delete(f.rollouts, fm.name)
		f.rolloutOutcome("aborted", &f.roAborted)
	}
	mv := fm.versions[canary]
	mv.state = StateCanary
	f.rollouts[fm.name] = &rollout{
		model:  fm.name,
		canary: canary,
		prior:  fm.defaultVersion,
		every:  splitEvery(f.cfg.Rollout.CanaryFraction),
	}
	f.rolloutOutcome("started", &f.roStarted)
}

// promote moves the canary to the default pin. Caller holds f.mu.
func (f *Fleet) promote(fm *fleetModel, ro *rollout) {
	if mv := fm.versions[ro.canary]; mv != nil {
		mv.state = StateReady
		fm.defaultVersion = ro.canary
	}
	delete(f.rollouts, fm.name)
	f.rolloutOutcome("promoted", &f.roPromoted)
}

// rollback quarantines the canary and keeps the default pin on the prior
// version. Caller holds f.mu.
func (f *Fleet) rollback(fm *fleetModel, ro *rollout, cause string) {
	if mv := fm.versions[ro.canary]; mv != nil {
		mv.state = StateQuarantined
		mv.reason = cause
		mv.health.quarantine(time.Now())
		f.setHealthGauge(mv)
	}
	delete(f.rollouts, fm.name)
	f.rolloutOutcome("rolledback", &f.roRolledBack)
}

// onOutcome is the serve-layer per-request hook: it attributes the
// outcome to its model version, feeds the health EWMA, and drives the
// active rollout's promote/rollback decision. With fallback enabled a
// broken canary's engine failures surface to clients as slow 200s — this
// hook is where those failures stay visible (Fallback/Hung/Breaker*).
func (f *Fleet) onOutcome(ev serve.OutcomeEvent) {
	model, version, ok := strings.Cut(ev.Model, ":")
	if !ok {
		return
	}
	// Every fallback means the engine was abandoned.
	failed := ev.Hung || ev.BreakerOpened || ev.BreakerShorted ||
		ev.Fallback || healthRelevant(ev.Err)
	if !failed && ev.Err != nil {
		return // load shedding / client error / context outcome: not health
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	fm := f.models[model]
	if fm == nil {
		return
	}
	mv := fm.versions[version]
	if mv == nil {
		return
	}
	prev := mv.health.state
	mv.health.observe(failed)
	if mv.health.state != prev {
		f.setHealthGauge(mv)
	}

	ro := f.rollouts[model]
	if ro == nil || ro.canary != version || mv.state != StateCanary {
		return
	}
	hard := ev.Hung || ev.BreakerOpened || ev.BreakerShorted
	switch {
	case hard:
		f.rollback(fm, ro, "rollout regression: "+hardCause(ev))
	case mv.health.unhealthy():
		f.rollback(fm, ro, "rollout regression: error-rate EWMA over threshold")
	case !failed && !f.cfg.Rollout.Shadow:
		// In shadow mode a success only counts once its outputs proved
		// bit-identical to the stable version's (shadowResult) — a
		// wrong-answer canary must never out-race its first mismatch.
		f.creditCanary(fm, ro)
	}
}

// creditCanary counts one successful canary request and promotes once
// the gate is met. Caller holds f.mu.
func (f *Fleet) creditCanary(fm *fleetModel, ro *rollout) {
	ro.served++
	mv := fm.versions[ro.canary]
	if ro.served >= f.cfg.Rollout.PromoteAfter && mv != nil &&
		!mv.health.unhealthy() && mv.health.state == HealthHealthy {
		f.promote(fm, ro)
	}
}

// hardCause names the hard-regression signal for the quarantine reason.
func hardCause(ev serve.OutcomeEvent) string {
	switch {
	case ev.Hung:
		return "watchdog cancel"
	case ev.BreakerOpened:
		return "breaker opened"
	default:
		return "breaker open"
	}
}

// shadowResult records one shadow comparison; a mismatch is a hard
// regression of the active rollout.
func (f *Fleet) shadowResult(model, version string, match bool) {
	result := "mismatch"
	if match {
		result = "match"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reg.Counter("godisc_fleet_shadow_total", obs.L("result", result)).Inc()
	if match {
		f.shadowMatch++
	} else {
		f.shadowMismatch++
	}
	fm := f.models[model]
	ro := f.rollouts[model]
	if fm == nil || ro == nil || ro.canary != version {
		return
	}
	mv := fm.versions[version]
	if mv == nil || mv.state != StateCanary {
		return
	}
	if !match {
		f.rollback(fm, ro, "rollout regression: shadow output mismatch")
		return
	}
	f.creditCanary(fm, ro)
}

// RolloutStats snapshots the controller for the discserve report line.
func (f *Fleet) RolloutStats() RolloutStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := RolloutStats{
		Started: f.roStarted, Promoted: f.roPromoted,
		RolledBack: f.roRolledBack, Aborted: f.roAborted,
		ShadowMatches: f.shadowMatch, ShadowMismatches: f.shadowMismatch,
	}
	for _, ro := range f.rollouts {
		st.Active = append(st.Active, ro.model+": "+ro.canary+" vs "+ro.prior)
	}
	for _, fm := range f.models {
		for _, mv := range fm.versions {
			if mv.state == StateQuarantined {
				st.Quarantined = append(st.Quarantined, mv.regName)
			}
		}
	}
	return st
}
