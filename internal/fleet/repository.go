// The model repository: a directory of versioned model definitions that
// the fleet loads into its serve.Server, charges against the memory
// governor, and LRU-evicts under pressure.
//
// Layout:
//
//	<repo>/<model>/<version>/model.graph   textual graph (graph.WriteText)
//	<repo>/<model>/config.json             optional {"default_version": "2"}
//
// Versions are directories; when every version name is numeric the
// default is the highest number, otherwise the lexically last. Each
// loaded version registers with the serve layer as "<model>:<version>"
// (its builder re-parses the stored text, so every compile sees a fresh
// graph) and its resident footprint — the constant/weight bytes the
// compiled engine holds — is reserved on the governor ledger for as long
// as the engine stays in memory.
//
// Eviction: when a reservation does not fit, the fleet evicts the least
// recently used idle engine — fleet-idle (no in-flight HTTP request on
// the version) AND run-idle (the engine-cache entry is unpinned; serve
// pins entries for the duration of every run) — releasing exactly the
// bytes it reserved. An evicted version stays READY: the next request
// re-charges the ledger and the serve layer reloads the engine from the
// persistent engine cache (a decode, not a compilation).
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"godisc/internal/discerr"
	"godisc/internal/graph"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// Lifecycle states of a loaded model version. CANARY and QUARANTINED are
// the rollout controller's states (rollout.go): a canary serves a traffic
// fraction while its health is judged; a quarantined version sheds
// explicit requests (discerr.ErrVersionQuarantined) except for half-open
// health probes.
const (
	StateReady       = "READY"
	StateFailed      = "FAILED"
	StateUnloading   = "UNLOADING"
	StateCanary      = "CANARY"
	StateQuarantined = "QUARANTINED"
)

// GraphFileName is the file a model version directory must contain.
const GraphFileName = "model.graph"

// modelVersion is one loaded (model, version): its registration in the
// serve layer plus the fleet-side residency accounting.
type modelVersion struct {
	model, version string
	regName        string // serve-layer model name: "<model>:<version>"
	key            string // engine-cache key: name, signature and file SHA-256
	bytes          int64  // resident footprint charged while the engine lives
	meta           ModelMeta

	// loadMu serializes residency transitions so concurrent requests to
	// an evicted version charge the ledger exactly once.
	loadMu chMutex

	// Under Fleet.mu:
	state    string
	reason   string
	resident bool
	release  func() // governor release for bytes; set iff resident
	active   int    // in-flight fleet requests on this version
	lastUsed time.Time
	// health is the version's three-state health lattice (health.go),
	// fed by the serve layer's outcome hook.
	health *healthTracker
}

// chMutex is a channel-based mutex so residency loads can abandon the
// wait when the request context dies instead of piling up behind a slow
// governor reservation.
type chMutex chan struct{}

func newChMutex() chMutex { return make(chan struct{}, 1) }

func (m chMutex) lock(ctx context.Context) error {
	select {
	case m <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m chMutex) unlock() { <-m }

// fleetModel groups the versions of one model name.
type fleetModel struct {
	name           string
	defaultVersion string
	versions       map[string]*modelVersion
}

// repoConfig is the optional per-model config.json.
type repoConfig struct {
	DefaultVersion string `json:"default_version"`
}

// validModelName rejects names that would escape the repository directory
// or collide with the "<model>:<version>" registration syntax.
func validModelName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsAny(name, ":/\\")
}

// LoadModel loads (or incrementally extends) a model from the repository
// directory: every version not yet loaded is parsed, registered,
// footprint-charged and warmed. Already-loaded versions are untouched, so
// re-issuing load after dropping a new version directory picks it up
// without disturbing traffic. Any failure unwinds the new versions and
// leaves previously loaded ones serving.
func (f *Fleet) LoadModel(ctx context.Context, name string) error {
	if !validModelName(name) {
		return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("fleet: invalid model name %q", name)}
	}
	dir := filepath.Join(f.cfg.Repo, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("fleet: model %q not in repository: %v", name, err)}
	}
	var versions []string
	for _, e := range entries {
		if !e.IsDir() || !validModelName(e.Name()) {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, e.Name(), GraphFileName)); err == nil {
			versions = append(versions, e.Name())
		}
	}
	if len(versions) == 0 {
		return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("fleet: model %q has no versions with %s", name, GraphFileName)}
	}
	sortVersions(versions)
	def := versions[len(versions)-1]
	if raw, err := os.ReadFile(filepath.Join(dir, "config.json")); err == nil {
		var rc repoConfig
		if err := json.Unmarshal(raw, &rc); err != nil {
			return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("fleet: model %q: config.json: %v", name, err)}
		}
		if rc.DefaultVersion != "" {
			def = rc.DefaultVersion
		}
	}

	// Parse and validate every new version before touching shared state.
	f.mu.Lock()
	fm := f.models[name]
	var have map[string]bool
	if fm != nil {
		have = make(map[string]bool, len(fm.versions))
		for v := range fm.versions {
			have[v] = true
		}
	}
	f.mu.Unlock()

	var fresh []*modelVersion
	for _, v := range versions {
		if have[v] {
			continue
		}
		mv, err := f.loadVersion(ctx, name, v, filepath.Join(dir, v, GraphFileName))
		if err != nil {
			for _, done := range fresh {
				f.unwindVersion(done)
			}
			return fmt.Errorf("fleet: model %q version %q: %w", name, v, err)
		}
		fresh = append(fresh, mv)
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		for _, done := range fresh {
			f.unwindVersion(done)
		}
		return &httpError{code: http.StatusServiceUnavailable, msg: "fleet: closed"}
	}
	if fm = f.models[name]; fm == nil {
		fm = &fleetModel{name: name, versions: map[string]*modelVersion{}}
		f.models[name] = fm
	}
	freshSet := make(map[string]bool, len(fresh))
	for _, mv := range fresh {
		fm.versions[mv.version] = mv
		freshSet[mv.version] = true
	}
	// Default-pin policy: without the rollout controller a new default
	// takes the pin immediately. With it, a freshly loaded version that
	// would become the default of an already-serving model must earn the
	// pin through a canary instead — the pin stays on the prior version
	// until the controller promotes. A pin change between existing
	// versions (an operator editing config.json) still applies directly.
	if _, ok := fm.versions[def]; ok && def != fm.defaultVersion {
		switch {
		case !f.cfg.Rollout.Enabled || fm.defaultVersion == "":
			fm.defaultVersion = def
		case freshSet[def]:
			f.startRollout(fm, def)
		case fm.versions[def].state == StateReady:
			fm.defaultVersion = def
		}
		// Versions mid-canary or quarantined never take the pin here: a
		// canary earns it via promote(); a quarantined version stays off
		// the pin no matter how often the watcher re-reads the repo.
	}
	f.setModelsGauge()
	f.mu.Unlock()
	return nil
}

// loadVersion parses, registers, charges and warms one version. On any
// error the version is fully unwound.
func (f *Fleet) loadVersion(ctx context.Context, name, version, path string) (*modelVersion, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, &httpError{code: http.StatusNotFound, msg: err.Error()}
	}
	sum := sha256.Sum256(raw)
	g, err := graph.ParseText(string(raw))
	if err != nil {
		return nil, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("parsing %s: %v", GraphFileName, err)}
	}
	mv := &modelVersion{
		model:    name,
		version:  version,
		regName:  name + ":" + version,
		bytes:    constBytes(g),
		meta:     metaOf(name, g),
		loadMu:   newChMutex(),
		state:    StateReady,
		lastUsed: time.Now(),
		health:   newHealthTracker(f.cfg.Rollout),
	}
	// g is the version's prototype: nothing mutates it from here on. The
	// builder hands out deep copies, so every invocation still returns a
	// fresh graph (the contract serve.Register demands) without parsing
	// the text again.
	// The engine key names the file's SHA-256, so an edited model.graph
	// never reaches an engine (in memory or in the persistent cache)
	// compiled from the old bytes.
	content := hex.EncodeToString(sum[:])
	if err := f.srv.RegisterContent(mv.regName, content, func() *graph.Graph { return g.Copy() }); err != nil {
		return nil, err
	}
	if mv.key, err = f.srv.EngineKey(mv.regName); err != nil {
		_ = f.srv.Unregister(mv.regName)
		return nil, err
	}
	if err := f.ensureResident(ctx, mv); err != nil {
		_ = f.srv.Unregister(mv.regName)
		return nil, err
	}
	if err := f.srv.Warm(mv.regName); err != nil {
		f.unwindVersion(mv)
		return nil, err
	}
	return mv, nil
}

// unwindVersion rolls back a version that never became visible (or is
// being unloaded): unregister, drop the engine, release the ledger.
func (f *Fleet) unwindVersion(mv *modelVersion) {
	_ = f.srv.Unregister(mv.regName)
	f.srv.EvictEngine(mv.key)
	f.mu.Lock()
	if mv.resident {
		mv.resident = false
		rel := mv.release
		mv.release = nil
		f.mu.Unlock()
		rel()
		return
	}
	f.mu.Unlock()
}

// UnloadModel removes every version of a model: new requests 404
// immediately, in-flight ones drain, engines are evicted and their
// footprints released. Waits (bounded by ctx) for in-flight runs.
func (f *Fleet) UnloadModel(ctx context.Context, name string) error {
	f.mu.Lock()
	fm := f.models[name]
	if fm == nil {
		f.mu.Unlock()
		return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("fleet: model %q is not loaded", name)}
	}
	delete(f.models, name)
	var mvs []*modelVersion
	for _, mv := range fm.versions {
		mv.state = StateUnloading
		mvs = append(mvs, mv)
	}
	f.setModelsGauge()
	f.mu.Unlock()

	for _, mv := range mvs {
		if err := f.retireVersion(ctx, mv, "unload"); err != nil {
			return err
		}
	}
	return nil
}

// retireVersion unregisters one version and spins (bounded by ctx) until
// no fleet request is active and the engine-cache entry is unpinned, then
// evicts and releases the ledger bytes.
func (f *Fleet) retireVersion(ctx context.Context, mv *modelVersion, reason string) error {
	_ = f.srv.Unregister(mv.regName)
	for {
		f.mu.Lock()
		idle := mv.active == 0
		f.mu.Unlock()
		_, pinned := f.srv.EvictEngine(mv.key)
		if idle && !pinned {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: unloading %s: %w", mv.regName, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	f.mu.Lock()
	if mv.resident {
		mv.resident = false
		rel := mv.release
		mv.release = nil
		f.mu.Unlock()
		rel()
	} else {
		f.mu.Unlock()
	}
	f.evictionCounter(reason).Inc()
	return nil
}

// resolve maps (model, version) — version "" meaning the default — to its
// loaded modelVersion.
func (f *Fleet) resolve(model, version string) (*modelVersion, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fm := f.models[model]
	if fm == nil {
		return nil, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("fleet: model %q is not loaded", model)}
	}
	v := version
	if v == "" {
		v = fm.defaultVersion
	}
	mv := fm.versions[v]
	if mv == nil {
		return nil, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("fleet: model %q has no version %q", model, v)}
	}
	return mv, nil
}

// acquire marks one in-flight request on mv and guarantees its footprint
// is charged (re-charging after an eviction). The caller must
// releaseActive exactly once.
func (f *Fleet) acquire(ctx context.Context, mv *modelVersion) error {
	return f.acquireFor(ctx, mv, false)
}

// acquireFor is acquire with the rollout controller's admission rules:
// CANARY versions serve traffic like READY ones, and a QUARANTINED
// version is admitted only for a half-open health probe (probe=true, the
// caller already holds the probing slot).
func (f *Fleet) acquireFor(ctx context.Context, mv *modelVersion, probe bool) error {
	f.mu.Lock()
	admissible := mv.state == StateReady || mv.state == StateCanary ||
		(probe && mv.state == StateQuarantined)
	if !admissible {
		state := mv.state
		f.mu.Unlock()
		if state == StateQuarantined {
			return fmt.Errorf("fleet: model %s: %w", mv.regName, discerr.ErrVersionQuarantined)
		}
		return &httpError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("fleet: model %s is %s", mv.regName, state)}
	}
	mv.active++
	mv.lastUsed = time.Now()
	resident := mv.resident
	f.mu.Unlock()
	if resident {
		return nil
	}
	if err := f.ensureResident(ctx, mv); err != nil {
		f.releaseActive(mv)
		return err
	}
	return nil
}

// releaseActive ends one in-flight request on mv.
func (f *Fleet) releaseActive(mv *modelVersion) {
	f.mu.Lock()
	mv.active--
	mv.lastUsed = time.Now()
	f.mu.Unlock()
}

// ensureResident charges mv's footprint on the governor ledger: an
// immediate reservation when it fits, otherwise LRU-evicting idle engines
// until it does. When nothing is idle right now (every resident engine
// has requests in flight) it keeps polling — in-flight work finishing is
// exactly what creates the next victim — bounded by LoadTimeout, after
// which the request fails as a memory-budget rejection.
func (f *Fleet) ensureResident(ctx context.Context, mv *modelVersion) error {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.LoadTimeout)
	defer cancel()
	if err := mv.loadMu.lock(ctx); err != nil {
		return err
	}
	defer mv.loadMu.unlock()
	f.mu.Lock()
	if mv.resident {
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()
	if f.gov == nil || mv.bytes <= 0 {
		f.mu.Lock()
		mv.resident, mv.release = true, func() {}
		f.mu.Unlock()
		return nil
	}
	for {
		if release, ok := f.gov.TryReserve(mv.bytes); ok {
			f.mu.Lock()
			mv.resident, mv.release = true, release
			f.mu.Unlock()
			return nil
		}
		if f.evictOneIdle(mv) {
			continue
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: model %s footprint %d bytes: %w (%v)",
				mv.regName, mv.bytes, discerr.ErrMemoryBudget, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// evictOneIdle evicts the least-recently-used idle resident engine other
// than `keep`, releasing its footprint. An engine is only a victim when
// no fleet request is active on it AND its cache entry is unpinned (no
// run in flight anywhere, HTTP or direct). Returns false when nothing
// could be evicted.
func (f *Fleet) evictOneIdle(keep *modelVersion) bool {
	f.mu.Lock()
	var victims []*modelVersion
	for _, fm := range f.models {
		for _, mv := range fm.versions {
			if mv != keep && mv.resident && mv.active == 0 &&
				(mv.state == StateReady || mv.state == StateCanary) {
				victims = append(victims, mv)
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].lastUsed.Before(victims[j].lastUsed) })
	for _, mv := range victims {
		if _, pinned := f.srv.EvictEngine(mv.key); pinned {
			continue // a run slipped in; try the next-oldest
		}
		mv.resident = false
		rel := mv.release
		mv.release = nil
		f.mu.Unlock()
		rel()
		f.evictionCounter("lru").Inc()
		return true
	}
	f.mu.Unlock()
	return false
}

// sortVersions orders version names numerically when every name parses
// as an integer, lexically otherwise.
func sortVersions(vs []string) {
	numeric := true
	for _, v := range vs {
		if _, err := strconv.Atoi(v); err != nil {
			numeric = false
			break
		}
	}
	sort.Slice(vs, func(i, j int) bool {
		if numeric {
			a, _ := strconv.Atoi(vs[i])
			b, _ := strconv.Atoi(vs[j])
			return a < b
		}
		return vs[i] < vs[j]
	})
}

// constBytes sums the constant payload bytes of a graph — the resident
// footprint a compiled engine of it holds (weights live in the engine for
// its whole lifetime; activations are charged per run by the exec layer).
func constBytes(g *graph.Graph) int64 {
	var n int64
	for _, nd := range g.Nodes() {
		if nd.Lit != nil {
			n += int64(nd.Lit.Bytes())
		}
	}
	return n
}

// metaOf derives the v2 metadata of a graph: dtypes and shapes of every
// parameter and output, dynamic dims as -1 plus their symbolic facts.
func metaOf(name string, g *graph.Graph) ModelMeta {
	meta := ModelMeta{Name: name, Platform: "godisc"}
	for _, p := range g.Params {
		meta.Inputs = append(meta.Inputs, tensorMeta(p.Name, p.DType, g, p))
	}
	for i, o := range g.Outputs {
		meta.Outputs = append(meta.Outputs, tensorMeta(fmt.Sprintf("output_%d", i), o.DType, g, o))
	}
	return meta
}

func tensorMeta(name string, dt tensor.DType, g *graph.Graph, n *graph.Node) TensorMeta {
	tm := TensorMeta{Name: name, Datatype: datatypeOf(dt)}
	for _, d := range n.Shape {
		desc := g.Ctx.Describe(d)
		if desc.Kind == symshape.KindStatic {
			tm.Shape = append(tm.Shape, desc.Static)
			tm.ShapeSymbolic = append(tm.ShapeSymbolic, strconv.FormatInt(desc.Static, 10))
			continue
		}
		tm.Shape = append(tm.Shape, -1)
		tm.ShapeSymbolic = append(tm.ShapeSymbolic, symDimString(desc, d))
	}
	return tm
}

// symDimString renders one dynamic dimension's declared facts, e.g.
// "batch range(1,64) div(4)".
func symDimString(desc symshape.DimDesc, d symshape.DimID) string {
	var sb strings.Builder
	if desc.Name != "" {
		sb.WriteString(desc.Name)
	} else {
		fmt.Fprintf(&sb, "d%d", d)
	}
	if desc.Lo > 1 || desc.Hi < symshape.Unbounded {
		hi := desc.Hi
		if hi >= symshape.Unbounded {
			hi = -1
		}
		fmt.Fprintf(&sb, " range(%d,%d)", desc.Lo, hi)
	}
	if desc.Divisor > 1 {
		fmt.Fprintf(&sb, " div(%d)", desc.Divisor)
	}
	return sb.String()
}

// Index reports every loaded model version and its state, sorted by
// (model, version) — the repository-index route body and the fleet tests'
// observation point.
func (f *Fleet) Index() []ModelStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []ModelStatus
	for _, fm := range f.models {
		for _, mv := range fm.versions {
			out = append(out, ModelStatus{
				Name: mv.model, Version: mv.version,
				State: mv.state, Reason: mv.reason, Resident: mv.resident,
				Health: mv.health.state,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}
