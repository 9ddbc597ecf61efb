package server

import (
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/routing"
)

// Backend is the query engine a Server fronts. The original (and still
// default) backend is a single in-process *oracle.Oracle; internal/router
// implements the same surface over a fleet of remote workers, which is
// what lets cmd/dcrouter reuse this package's whole connection layer —
// text protocol, binary protocol, limits, drain — unchanged.
type Backend interface {
	// N is the vertex count; queries must have endpoints in [0, N).
	N() int
	// Dist answers one distance query.
	Dist(u, v int32) (oracle.Answer, error)
	// Route answers one routing query. Backends that cannot route (the
	// router: paths are worker-local) return an error.
	Route(u, v int32) (routing.Path, oracle.Answer, error)
	// AnswerBatch answers qs index-aligned, mirroring oracle.AnswerBatch
	// semantics: invalid queries answer the Unreachable sentinel at their
	// index rather than failing the batch. A non-nil error means the whole
	// batch failed (e.g. every worker of a fleet is down) and no answers
	// are usable.
	AnswerBatch(qs []oracle.Query) ([]oracle.Answer, error)
	// StatsLine renders the backend's half of the stats response — the
	// oracle report, or the router's per-shard counter report — from a
	// single consistent snapshot.
	StatsLine() string
}

// TracedBackend is the optional tracing surface: a Backend that also
// implements it receives the per-request trace and annotates it with its
// own hops (oracle resolution path, router fan-out timeline). Answers
// must be identical to the untraced calls — tracing observes, never
// steers. Backends without it still serve traced requests; the trace
// just records server-side hops only.
type TracedBackend interface {
	DistTrace(u, v int32, tr *obs.ReqTrace) (oracle.Answer, error)
	AnswerBatchTrace(qs []oracle.Query, tr *obs.ReqTrace) ([]oracle.Answer, error)
}

// oracleBackend adapts *oracle.Oracle to the Backend interface. The
// oracle's own methods (N, Dist, Route, DistTrace) already match; only
// the batch/stats shapes differ.
type oracleBackend struct {
	*oracle.Oracle
}

// AnswerBatch wraps oracle.AnswerBatch, which cannot fail.
func (b oracleBackend) AnswerBatch(qs []oracle.Query) ([]oracle.Answer, error) {
	return b.Oracle.AnswerBatch(qs), nil
}

// AnswerBatchTrace wraps oracle.AnswerBatchTrace, which cannot fail.
func (b oracleBackend) AnswerBatchTrace(qs []oracle.Query, tr *obs.ReqTrace) ([]oracle.Answer, error) {
	return b.Oracle.AnswerBatchTrace(qs, tr), nil
}

// StatsLine renders the oracle's serving report.
func (b oracleBackend) StatsLine() string { return b.Oracle.Stats().String() }
