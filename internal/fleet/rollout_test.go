// Rollout controller tests: canary promotion, automatic rollback with
// quarantine, shadow-mode bit-wise tensor comparison, half-open probe recovery,
// and the chaos acceptance run (a broken canary under HTTP + kernel
// faults must be rolled back with zero wrong answers and zero 5xx on the
// stable version).
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"godisc/internal/faultinject"
	"godisc/internal/graph"
	"godisc/internal/serve"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// rolloutRepo builds a single-model repository holding only alpha/1, so
// each test controls exactly when version 2 appears.
func rolloutRepo(t testing.TB) string {
	t.Helper()
	repo := t.TempDir()
	writeVersion(t, repo, "alpha", "1", fixtureGraph("alpha", "1"))
	return repo
}

// loadAlpha re-reads the repository (what the watcher does each tick).
func loadAlpha(t testing.TB, fx *fixture) {
	t.Helper()
	if err := fx.f.LoadModel(context.Background(), "alpha"); err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
}

// alphaStatus finds alpha/version in the repository index.
func alphaStatus(t testing.TB, fx *fixture, version string) ModelStatus {
	t.Helper()
	for _, st := range fx.f.Index() {
		if st.Name == "alpha" && st.Version == version {
			return st
		}
	}
	t.Fatalf("alpha/%s not in index: %+v", version, fx.f.Index())
	return ModelStatus{}
}

// TestRolloutPromotesHealthyCanary: a new version enters CANARY instead
// of taking the default pin, serves its traffic split, and is promoted
// to the default after PromoteAfter clean requests.
func TestRolloutPromotesHealthyCanary(t *testing.T) {
	repo := rolloutRepo(t)
	fx := newFixture(t, fixtureOpts{repo: repo, rollout: RolloutConfig{
		Enabled: true, CanaryFraction: 0.5, PromoteAfter: 4, MinSamples: 2,
	}})
	if got := fx.infer(t, "alpha", "", 3, nil).ModelVersion; got != "1" {
		t.Fatalf("default pin before rollout = %s, want 1", got)
	}

	writeVersion(t, repo, "alpha", "2", fixtureGraph("alpha", "2"))
	loadAlpha(t, fx)
	if st := alphaStatus(t, fx, "2"); st.State != StateCanary {
		t.Fatalf("new version state = %s, want %s", st.State, StateCanary)
	}
	if rs := fx.f.RolloutStats(); rs.Started != 1 || len(rs.Active) != 1 {
		t.Fatalf("rollout must be active: %+v", rs)
	}
	// Re-reading an unchanged repository must not disturb the rollout.
	loadAlpha(t, fx)
	if rs := fx.f.RolloutStats(); rs.Started != 1 || rs.Aborted != 0 {
		t.Fatalf("idempotent reload restarted the rollout: %+v", rs)
	}

	sawCanary, sawStable := false, false
	for i := 0; i < 40 && fx.f.RolloutStats().Promoted == 0; i++ {
		switch fx.infer(t, "alpha", "", 2, nil).ModelVersion {
		case "1":
			sawStable = true
		case "2":
			sawCanary = true
		}
	}
	rs := fx.f.RolloutStats()
	if rs.Promoted != 1 || rs.RolledBack != 0 {
		t.Fatalf("canary must promote: %+v", rs)
	}
	if !sawCanary || !sawStable {
		t.Fatalf("split must serve both versions (canary=%v stable=%v)", sawCanary, sawStable)
	}
	st := alphaStatus(t, fx, "2")
	if st.State != StateReady || st.Health != HealthHealthy {
		t.Fatalf("promoted canary = %s/%s, want READY/HEALTHY", st.State, st.Health)
	}
	for i := 0; i < 4; i++ {
		if got := fx.infer(t, "alpha", "", 2, nil).ModelVersion; got != "2" {
			t.Fatalf("default pin after promotion = %s, want 2", got)
		}
	}
}

// TestRolloutRollsBackBrokenCanary: a canary whose engine fails every
// run is rolled back and quarantined automatically. Clients never see a
// 5xx — the failing requests are served by the interpreter fallback —
// and the default pin stays on the prior version. Explicit requests to
// the quarantined version shed 503 with the quarantine sentinel and a
// Retry-After hint.
func TestRolloutRollsBackBrokenCanary(t *testing.T) {
	repo := rolloutRepo(t)
	fx := newFixture(t, fixtureOpts{
		repo:         repo,
		breakEngines: map[string]bool{"alpha-broken": true},
		rollout: RolloutConfig{
			Enabled: true, CanaryFraction: 0.5, PromoteAfter: 100,
			MinSamples: 2, EWMAAlpha: 0.5, MaxErrorRate: 0.5,
			ProbeCooldown: time.Hour, // no probes in this test
		},
	})
	writeVersion(t, repo, "alpha", "2", buildDense("alpha-broken", 999, 8, 24, 4))
	loadAlpha(t, fx)

	rolledBack := false
	for i := 0; i < 60 && !rolledBack; i++ {
		fx.infer(t, "alpha", "", 2, nil) // fx.infer fails the test on any non-200
		rolledBack = fx.f.RolloutStats().RolledBack == 1
	}
	if !rolledBack {
		t.Fatalf("broken canary never rolled back: %+v", fx.f.RolloutStats())
	}
	st := alphaStatus(t, fx, "2")
	if st.State != StateQuarantined || st.Health != HealthQuarantined || st.Reason == "" {
		t.Fatalf("rolled-back canary = %+v, want QUARANTINED with a reason", st)
	}
	for i := 0; i < 4; i++ {
		if got := fx.infer(t, "alpha", "", 2, nil).ModelVersion; got != "1" {
			t.Fatalf("default pin after rollback = %s, want 1", got)
		}
	}

	// Explicit requests to the quarantined version shed with the sentinel.
	body := f32Request(t, []int64{2, 8}, randInput(7, 2, 8))
	resp, err := http.Post(fx.ts.URL+"/v2/models/alpha/versions/2/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined version answered %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterSeconds {
		t.Fatalf("quarantine shed must carry Retry-After=%s, got %q", retryAfterSeconds, got)
	}
	var env map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env["error"], "quarantined") {
		t.Fatalf("quarantine error envelope = %q", env["error"])
	}

	// The readiness endpoint reports the quarantined version unready.
	code, payload := fx.do(t, "GET", "/v2/models/alpha/versions/2/ready", nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined readiness = %d, want 503", code)
	}
	var ready struct {
		Ready  bool   `json:"ready"`
		State  string `json:"state"`
		Health string `json:"health"`
	}
	if err := json.Unmarshal(payload, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Ready || ready.State != StateQuarantined || ready.Health != HealthQuarantined {
		t.Fatalf("quarantined readiness body = %+v", ready)
	}

	// A repository re-read (the watcher) must NOT repin the quarantined
	// highest version.
	loadAlpha(t, fx)
	if got := fx.infer(t, "alpha", "", 2, nil).ModelVersion; got != "1" {
		t.Fatalf("watcher repinned onto quarantined version (got %s)", got)
	}
}

// TestShadowMismatchRollsBack: in shadow mode the canary mirrors stable
// traffic and a single bit-wise output mismatch rolls it back. The
// client always receives the stable version's bytes.
func TestShadowMismatchRollsBack(t *testing.T) {
	repo := rolloutRepo(t)
	fx := newFixture(t, fixtureOpts{repo: repo, rollout: RolloutConfig{
		Enabled: true, Shadow: true, CanaryFraction: 1, PromoteAfter: 3,
		MinSamples: 2, ProbeCooldown: time.Hour,
	}})
	ref := fx.infer(t, "alpha", "", 4, nil)

	// Version 2 has different weights → different outputs → mismatch.
	writeVersion(t, repo, "alpha", "2", fixtureGraph("alpha", "2"))
	loadAlpha(t, fx)
	got := fx.infer(t, "alpha", "", 4, nil)
	if got.ModelVersion != "1" {
		t.Fatalf("shadow-mode client response came from %s, want stable 1", got.ModelVersion)
	}
	if !bytes.Equal(got.Outputs[0].Data, ref.Outputs[0].Data) {
		t.Fatal("shadow-mode client bytes differ from the stable reference")
	}
	rs := fx.f.RolloutStats()
	if rs.ShadowMismatches == 0 || rs.RolledBack != 1 {
		t.Fatalf("mismatch must roll the canary back: %+v", rs)
	}
	if st := alphaStatus(t, fx, "2"); st.State != StateQuarantined {
		t.Fatalf("mismatched canary state = %s, want QUARANTINED", st.State)
	}
}

// TestShadowSignedZeroMismatch: the shadow verdict compares tensors bit
// for bit, so a canary answering -0 wherever the stable version answers
// +0 — numerically equal everywhere — is still a mismatch.
func TestShadowSignedZeroMismatch(t *testing.T) {
	zeros := func(name string, negate bool) *graph.Graph {
		g := graph.New(name)
		b := g.Ctx.NewDim("B")
		g.Ctx.DeclareRange(b, 1, 64)
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(8)})
		y := g.Mul(g.Mul(x, x), g.ConstScalar(0)) // x² · 0 = +0
		if negate {
			y = g.Neg(y)
		}
		g.SetOutputs(y)
		return g
	}
	repo := t.TempDir()
	writeVersion(t, repo, "alpha", "1", zeros("alpha-zero", false))
	fx := newFixture(t, fixtureOpts{repo: repo, rollout: RolloutConfig{
		Enabled: true, Shadow: true, CanaryFraction: 1, PromoteAfter: 3,
		MinSamples: 2, ProbeCooldown: time.Hour,
	}})
	writeVersion(t, repo, "alpha", "2", zeros("alpha-negzero", true))
	loadAlpha(t, fx)

	got := fx.infer(t, "alpha", "", 2, nil)
	if want := "[" + strings.Repeat("0,", 15) + "0]"; got.ModelVersion != "1" || string(got.Outputs[0].Data) != want {
		t.Fatalf("client got version %s data %s, want stable 1 and %s", got.ModelVersion, got.Outputs[0].Data, want)
	}
	if rs := fx.f.RolloutStats(); rs.ShadowMismatches != 1 || rs.ShadowMatches != 0 || rs.RolledBack != 1 {
		t.Fatalf("-0 against +0 must count as a mismatch and roll back: %+v", rs)
	}
	// The canary really did answer -0 (not something cruder).
	resp, err := fx.srv.Infer(context.Background(), &serve.Request{Model: "alpha:2",
		Inputs: []*tensor.Tensor{tensor.FromF32(randInput(3, 1, 8), 1, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range resp.Outputs[0].F32() {
		if v != 0 || !math.Signbit(float64(v)) {
			t.Fatalf("canary element %d = %v, want -0", i, v)
		}
	}
}

// TestShadowMatchPromotes: a canary whose outputs are bit-identical to
// the stable version's earns promotion through shadow comparisons alone.
func TestShadowMatchPromotes(t *testing.T) {
	repo := rolloutRepo(t)
	fx := newFixture(t, fixtureOpts{repo: repo, rollout: RolloutConfig{
		Enabled: true, Shadow: true, CanaryFraction: 1, PromoteAfter: 3, MinSamples: 2,
	}})
	// Version 2 stores the same graph as version 1: identical weights,
	// bit-identical outputs.
	writeVersion(t, repo, "alpha", "2", fixtureGraph("alpha", "1"))
	loadAlpha(t, fx)
	for i := 0; i < 10 && fx.f.RolloutStats().Promoted == 0; i++ {
		fx.infer(t, "alpha", "", 2, nil)
	}
	rs := fx.f.RolloutStats()
	if rs.Promoted != 1 || rs.ShadowMatches < int64(3) || rs.ShadowMismatches != 0 {
		t.Fatalf("matching shadow canary must promote: %+v", rs)
	}
	if got := fx.infer(t, "alpha", "", 2, nil).ModelVersion; got != "2" {
		t.Fatalf("default pin after shadow promotion = %s, want 2", got)
	}
}

// TestQuarantineProbeRecovery: after the cooldown a quarantined version
// admits exactly one half-open probe; a successful probe re-opens it as
// READY/DEGRADED and healthy traffic walks it back to HEALTHY.
func TestQuarantineProbeRecovery(t *testing.T) {
	repo := rolloutRepo(t)
	fx := newFixture(t, fixtureOpts{repo: repo, rollout: RolloutConfig{
		Enabled: true, Shadow: true, CanaryFraction: 1, MinSamples: 2,
		ProbeCooldown: 30 * time.Millisecond,
	}})
	// Quarantine a healthy-engine canary via a shadow mismatch (different
	// weights, perfectly working engine).
	writeVersion(t, repo, "alpha", "2", fixtureGraph("alpha", "2"))
	loadAlpha(t, fx)
	fx.infer(t, "alpha", "", 2, nil)
	if st := alphaStatus(t, fx, "2"); st.State != StateQuarantined {
		t.Fatalf("setup: expected quarantine, got %s", st.State)
	}

	// Inside the cooldown every explicit request sheds.
	body := f32Request(t, []int64{2, 8}, randInput(7, 2, 8))
	if code, _ := fx.do(t, "POST", "/v2/models/alpha/versions/2/infer", body, nil); code != 503 {
		t.Fatalf("pre-cooldown request = %d, want 503", code)
	}

	// After the cooldown one probe is admitted; the engine works, so the
	// version comes back READY with DEGRADED health.
	time.Sleep(50 * time.Millisecond)
	if got := fx.infer(t, "alpha", "2", 2, nil); got.ModelVersion != "2" {
		t.Fatalf("probe served by %s, want 2", got.ModelVersion)
	}
	st := alphaStatus(t, fx, "2")
	if st.State != StateReady || st.Health != HealthDegraded {
		t.Fatalf("after probe: %s/%s, want READY/DEGRADED", st.State, st.Health)
	}

	// Healthy traffic walks DEGRADED back to HEALTHY.
	for i := 0; i < 3; i++ {
		fx.infer(t, "alpha", "2", 2, nil)
	}
	if st := alphaStatus(t, fx, "2"); st.Health != HealthHealthy {
		t.Fatalf("health after clean traffic = %s, want HEALTHY", st.Health)
	}
}

// TestNewVersionAbortsActiveRollout: a newer version arriving mid-canary
// aborts the running rollout (the old canary rejoins as a plain READY
// version) and starts a fresh one.
func TestNewVersionAbortsActiveRollout(t *testing.T) {
	repo := rolloutRepo(t)
	fx := newFixture(t, fixtureOpts{repo: repo, rollout: RolloutConfig{
		Enabled: true, CanaryFraction: 0.5, PromoteAfter: 1000,
	}})
	writeVersion(t, repo, "alpha", "2", fixtureGraph("alpha", "2"))
	loadAlpha(t, fx)
	writeVersion(t, repo, "alpha", "3", fixtureGraph("alpha", "2"))
	loadAlpha(t, fx)

	rs := fx.f.RolloutStats()
	if rs.Started != 2 || rs.Aborted != 1 {
		t.Fatalf("second version must abort the first rollout: %+v", rs)
	}
	if st := alphaStatus(t, fx, "2"); st.State != StateReady {
		t.Fatalf("aborted canary state = %s, want READY", st.State)
	}
	if st := alphaStatus(t, fx, "3"); st.State != StateCanary {
		t.Fatalf("new canary state = %s, want CANARY", st.State)
	}
	if got := fx.infer(t, "alpha", "", 2, nil).ModelVersion; got == "3" {
		t.Fatal("default pin moved to the unpromoted canary")
	}
}

// fleetChaosSpec is the default fault mix for the chaos rollout run:
// engine-layer faults (kernel panics, transient allocs) plus the
// network-layer sites. `make chaos` overrides it via GODISC_FAULTS.
const fleetChaosSpec = "kernel-launch:panic:0.15,alloc:transient:0.15," +
	"http-read:transient:0.15,http-decode:transient:0.15,http-write:error:0.1"

func fleetChaosInjector(t *testing.T) *faultinject.Injector {
	t.Helper()
	if os.Getenv("GODISC_FAULTS") != "" {
		inj, err := faultinject.FromEnv()
		if err != nil {
			t.Fatalf("GODISC_FAULTS: %v", err)
		}
		t.Logf("chaos: env spec %q seed %d", os.Getenv("GODISC_FAULTS"), inj.Seed())
		return inj
	}
	inj, err := faultinject.FromSpec(fleetChaosSpec, 11)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestChaosRolloutAcceptance is the headline self-healing check: a
// broken canary (wrong weights AND a failing engine) is dropped into the
// repository mid-traffic while kernel faults and network-layer faults
// (torn reads, corrupt payloads, aborted writes) fire. The controller
// must roll the canary back on its own; every 200 the client receives
// must carry the stable version's bit-exact bytes; the stable version
// must never answer 5xx.
func TestChaosRolloutAcceptance(t *testing.T) {
	inj := fleetChaosInjector(t)
	repo := rolloutRepo(t)
	fx := newFixture(t, fixtureOpts{
		repo:         repo,
		faults:       inj,
		breakEngines: map[string]bool{"alpha-broken": true},
		rollout: RolloutConfig{
			Enabled: true, Shadow: true, CanaryFraction: 0.5,
			PromoteAfter: 1000, MinSamples: 2, EWMAAlpha: 0.5,
			MaxErrorRate: 0.5, ProbeCooldown: time.Hour,
		},
	})
	// Chaos specs from the environment may arm compile faults, which can
	// break the fixture's auto-load; insist alpha/1 is serving first.
	for i := 0; ; i++ {
		if err := fx.f.LoadModel(context.Background(), "alpha"); err == nil {
			break
		} else if i == 50 {
			t.Fatalf("alpha never loaded under chaos: %v", err)
		}
	}

	// chaosInfer retries through injected request-layer faults (400s and
	// torn connections) until a 200 arrives; a 5xx is always fatal.
	chaosInfer := func(batch int) *InferResponse {
		body := f32Request(t, []int64{int64(batch), 8}, randInput(uint64(batch)*31+7, batch, 8))
		for i := 0; i < 100; i++ {
			resp, err := http.Post(fx.ts.URL+"/v2/models/alpha/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				continue
			}
			if resp.StatusCode >= 500 {
				resp.Body.Close()
				t.Fatalf("stable version answered %d under chaos", resp.StatusCode)
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				continue
			}
			var out InferResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("undecodable 200 body: %v", err)
			}
			return &out
		}
		t.Fatal("no 200 in 100 attempts under chaos")
		return nil
	}

	// Bit-exact references per batch size, before the canary exists.
	const maxBatch = 4
	refs := map[int][]byte{}
	for b := 1; b <= maxBatch; b++ {
		refs[b] = chaosInfer(b).Outputs[0].Data
	}

	// Drop the broken canary mid-traffic.
	writeVersion(t, repo, "alpha", "2", buildDense("alpha-broken", 999, 8, 24, 4))
	for i := 0; ; i++ {
		if err := fx.f.LoadModel(context.Background(), "alpha"); err == nil {
			break
		} else if i == 50 {
			t.Fatalf("canary never loaded under chaos: %v", err)
		}
	}

	var ok200, rejected, aborted int
	for i := 0; i < 120; i++ {
		b := i%maxBatch + 1
		body := f32Request(t, []int64{int64(b), 8}, randInput(uint64(b)*31+7, b, 8))
		resp, err := http.Post(fx.ts.URL+"/v2/models/alpha/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			aborted++ // the http-write site tore the connection down
			continue
		}
		func() {
			defer resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				var out InferResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatalf("request %d: undecodable 200 body: %v", i, err)
				}
				if out.ModelVersion != "1" {
					t.Fatalf("request %d: shadow-mode client served by version %s", i, out.ModelVersion)
				}
				if !bytes.Equal(out.Outputs[0].Data, refs[b]) {
					t.Fatalf("request %d: WRONG ANSWER under chaos (batch %d)", i, b)
				}
				ok200++
			case resp.StatusCode == http.StatusBadRequest:
				rejected++ // injected torn read / corrupt payload
			case resp.StatusCode >= 500:
				t.Fatalf("request %d: stable version answered %d under chaos", i, resp.StatusCode)
			default:
				t.Fatalf("request %d: unexpected status %d", i, resp.StatusCode)
			}
		}()
	}
	t.Logf("chaos rollout: %d ok, %d rejected, %d aborted; injector fired %d times %v (seed %d)",
		ok200, rejected, aborted, inj.Total(), inj.Counts(), inj.Seed())
	if ok200 == 0 {
		t.Fatal("chaos run produced no successful requests")
	}

	rs := fx.f.RolloutStats()
	if rs.RolledBack < 1 {
		t.Fatalf("broken canary must be rolled back under chaos: %+v", rs)
	}
	st := alphaStatus(t, fx, "2")
	if st.State != StateQuarantined {
		t.Fatalf("broken canary state = %s, want QUARANTINED", st.State)
	}
	if got := chaosInfer(2); got.ModelVersion != "1" {
		t.Fatalf("default pin after chaos = %s, want 1", got.ModelVersion)
	}
}
