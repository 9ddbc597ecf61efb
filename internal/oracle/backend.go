package oracle

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Backend names accepted by Options.Backend (and the CLIs'
// -oracle-backend flag). The empty string means BackendLandmarkBiBFS —
// the zero Options value keeps the original engine, so committed bench
// baselines and differential fingerprints are unaffected by the backend
// layer's existence.
const (
	// BackendLandmarkBiBFS is the original engine: a bidirectional BFS
	// for the exact spanner distance, with a bulk multi-source BFS arm
	// for batches. It precomputes nothing (the name is from a landmark
	// table it once kept beside the search); query O(d·deg). Stretch
	// bound 1: every answer is exact on H.
	BackendLandmarkBiBFS = "landmark-bibfs"
	// BackendExactCached precomputes the full all-pairs distance matrix
	// (a triangular n(n−1)/2 table) at build time. Space O(n²), query
	// O(1), stretch bound 1. Only sensible for small graphs — the tuner
	// gates it on Options.MemoryBudget. Static oracles only: NewDynamic
	// refuses it with ErrDynamicBackend.
	BackendExactCached = "exact-cached"
	// BackendSparseHub is the Thorup–Zwick-style two-level design from
	// Agarwal–Godfrey–Har-Peled's sparse-graph line of work: a hub set A
	// of size k with full BFS rows, plus per-vertex bunches
	// B(u) = {w : d(u,w) < d(u,A)} holding exact distances. Space
	// O(k·n + Σ|B(u)|) with E|B(u)| ≈ n/k under uniform hub sampling
	// (k ≈ √n balances the two terms; Options.SparseHubs is the knob).
	// Query is two binary searches plus an O(k) hub scan; stretch bound 3.
	// Static oracles only: NewDynamic refuses it with ErrDynamicBackend.
	BackendSparseHub = "sparse-hub"
	// BackendAuto asks New to benchmark every candidate backend on a
	// sampled query mix over the loaded graph and serve the fastest one
	// that fits Options.MemoryBudget (see tuner.go for the decision
	// rule). The choice is exposed via Oracle.Backend and TunerReport.
	// NewDynamic runs no tuner: under auto it serves BackendLandmarkBiBFS.
	BackendAuto = "auto"
)

// BackendNames returns the concrete backend names (excluding
// BackendAuto), in tuner preference order for ties.
func BackendNames() []string {
	return []string{BackendLandmarkBiBFS, BackendExactCached, BackendSparseHub}
}

// Backend is one distance-resolution engine behind an Oracle. The Oracle
// owns all shared serving concerns — query validation, self-queries,
// query/latency accounting, the realized-stretch sampler, routing — and
// delegates only the distance resolution of valid u ≠ v pairs here.
//
// The interface is sealed (attachMetrics is unexported): backends are
// constructed by New/NewFromGraphs via Options.Backend, so every
// implementation is swept by the internal/check differential harness
// against the exact distance matrix and its declared stretch bound.
type Backend interface {
	// Name returns the backend's registered name (one of BackendNames).
	Name() string
	// StretchBound is the declared worst-case multiplicative stretch of
	// Dist against the exact spanner distance: every finite answer
	// satisfies d_H(u,v) ≤ Dist ≤ StretchBound·d_H(u,v), and Unreachable
	// is answered if and only if the pair is disconnected on H.
	// internal/check enforces the declared bound against the exact
	// matrix for every generator family.
	StretchBound() int
	// MemoryBytes estimates the backend's resident precomputed state
	// (the all-pairs table, hub rows and bunches; 0 for landmark-bibfs)
	// — the figure the startup tuner gates candidates on. It reads only
	// fields fixed at construction, so reporting calls it without a lock.
	MemoryBytes() int64
	// Dist resolves one query with both endpoints validated in range and
	// u ≠ v. It returns the filled Answer and the obs.Path* bit of the
	// resolution path taken; implementations do their own per-path
	// counting but no query/latency accounting.
	Dist(u, v int32) (Answer, uint8)
	// AnswerBatch offers the whole batch to the backend's bulk arm. When
	// it returns handled=true the backend has filled out[i] for every
	// valid non-self query (other slots are the Oracle's to fill) and
	// the mask is the OR of path bits taken; handled=false punts the
	// batch to the Oracle's per-query worker pool, which calls Dist.
	AnswerBatch(qs []Query, out []Answer) (mask uint8, handled bool)

	// attachMetrics registers the backend's counters into the oracle's
	// registry, labeled backend="<name>". Called exactly once, on the
	// backend actually serving — tuner candidates that lose are never
	// attached, so candidate probing cannot collide on metric names.
	// Every closure it registers reads an atomic or a field fixed at
	// construction, so a scrape never waits for an update.
	attachMetrics(reg *obs.Registry)
}

// BackendStats is the serving backend's declared contract and size. Its
// per-path counters are the backend-labeled families on the registry.
type BackendStats struct {
	// Name is the backend's registered name.
	Name string
	// StretchBound is the declared worst-case stretch.
	StretchBound int
	// MemoryBytes estimates the backend's precomputed state.
	MemoryBytes int64
}

// backendKey returns the registry snapshot key of a backend-labeled
// metric — the obs registry keys labeled series as `name{label="value"}`.
func backendKey(name, backend string) string {
	return name + `{backend="` + backend + `"}`
}

// buildBackend constructs the named backend over the spanner h, which
// it serves for its lifetime. The Options carry every knob a backend
// reads (SparseHubs, Seed); name must be a concrete backend name —
// BackendAuto is resolved by the tuner before this is called.
func buildBackend(name string, h *graph.Graph, opts Options, workers int) (Backend, error) {
	switch name {
	case "", BackendLandmarkBiBFS:
		return newBiBFSBackend(h, workers), nil
	case BackendExactCached:
		return newExactBackend(h, workers), nil
	case BackendSparseHub:
		return newSparseBackend(h, opts, workers), nil
	default:
		return nil, fmt.Errorf("oracle: unknown backend %q (have %v, or %q)",
			name, BackendNames(), BackendAuto)
	}
}
