package serve

import "fmt"

// Engine lifecycle hooks for a fleet front-end: a model repository keeps a
// byte ledger of resident engines and needs to (a) name the engine-cache
// key a model resolves to, (b) evict the in-memory engine of an idle model
// so its reservation can be released, and (c) retire a model entirely on
// unload. Eviction is safe against in-flight runs by construction: every
// executing request holds a pin on its cache entry (ral.Cache), and Evict
// refuses pinned entries.

// cacheKey names the engine-cache entry of a model's symbolic signature:
// model@sig, plus #content when the model was registered with a content
// identity (RegisterContent). The signature alone is not enough: two
// models with identical signatures still differ in weights, so the key
// scopes it by model name; and one name may be reloaded with different
// bytes, so the key also names the bytes.
func cacheKey(model, content, sig string) string {
	if content == "" {
		return model + "@" + sig
	}
	return model + "@" + sig + "#" + content
}

// key returns the engine-cache key of the model under signature sig.
func (m *modelEntry) key(sig string) string { return cacheKey(m.name, m.content, sig) }

// EngineKey returns the engine-cache key a registered model's engine lives
// under. Callers that evict (EvictEngine) capture it at load time, before
// any unload removes the builder.
func (s *Server) EngineKey(model string) (string, error) {
	m, err := s.lookup(model)
	if err != nil {
		return "", err
	}
	sig, err := m.signature()
	if err != nil {
		return "", err
	}
	return m.key(sig), nil
}

// EvictEngine removes the in-memory engine under key (EngineKey) unless an
// in-flight run holds it pinned. evicted reports removal; pinned reports
// the entry is busy and the caller should retry after the runs drain. A
// persisted copy in the engine cache is untouched: the next request
// reloads it from disk (a decode, not a compilation).
func (s *Server) EvictEngine(key string) (evicted, pinned bool) {
	return s.cache.Evict(key)
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
		key := m.key(sig)
		delete(s.breakers, key)
		s.wd.forget(key)
	}
	return nil
}
