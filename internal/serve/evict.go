package serve

import "fmt"

// Engine lifecycle hooks for a fleet front-end: a model repository keeps a
// byte ledger of resident engines and needs to (a) name the engine-cache
// key a model resolves to, (b) evict the in-memory engine of an idle model
// so its reservation can be released, and (c) retire a model entirely on
// unload. Eviction is safe against in-flight runs by construction: every
// executing request holds a pin on its cache entry (ral.Cache), and Evict
// refuses pinned entries.

// cacheKey names the engine-cache entry of a model's symbolic signature.
// The signature alone is not enough: two models with identical signatures
// still differ in weights, so the key scopes it by model name.
func cacheKey(model, sig string) string { return model + "@" + sig }

// ModelSignature returns the symbolic shape signature of a registered
// model — the second half of its engine-cache key. Callers that evict by
// (model, signature) capture it at load time, before any unload removes
// the builder.
func (s *Server) ModelSignature(model string) (string, error) {
	m, err := s.lookup(model)
	if err != nil {
		return "", err
	}
	return m.signature()
}

// EvictEngine removes the in-memory engine for (model, sig) — the entry
// compiled under the key model@sig — unless an in-flight run holds it
// pinned. evicted reports removal; pinned reports the entry is busy and
// the caller should retry after the runs drain. A persisted copy in the
// engine cache is untouched: the next request reloads it from disk (a
// decode, not a compilation).
func (s *Server) EvictEngine(model, sig string) (evicted, pinned bool) {
	return s.cache.Evict(cacheKey(model, sig))
}

// Unregister removes a model's builder: later Infer calls fail with an
// unknown-model error, while requests already past lookup finish normally
// on the engine they pinned. The signature's circuit-breaker state and
// watchdog latency history are dropped with it. The in-memory engine is
// NOT evicted here — callers that account engine residency evict
// explicitly (EvictEngine) so the release of their ledger bytes cannot
// race in-flight runs.
func (s *Server) Unregister(model string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[model]
	if !ok {
		return fmt.Errorf("serve: unknown model %q", model)
	}
	delete(s.models, model)
	if sig, err := m.signature(); err == nil {
		key := cacheKey(model, sig)
		delete(s.breakers, key)
		s.wd.forget(key)
	}
	return nil
}
