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

// SnapshotStatser is the optional single-snapshot stats surface: a
// Backend whose counters live in the server's registry can render its
// StatsLine from a caller-captured snapshot, letting the server derive
// the whole stats response (backend half, server half, /metrics) from
// one capture instant.
type SnapshotStatser interface {
	StatsLineFrom(snap obs.Snapshot) string
}

// Updatable is the optional dynamic-graph surface: a Backend that also
// implements it serves the "update"/"snapshot" text verbs and the
// MsgUpdate/MsgSnap binary messages. Backends without it answer those
// requests with a protocol error — the server always understands the
// frames, it just refuses mutations it has no engine for.
type Updatable interface {
	// Update applies one edge insert (add true) or delete to the live
	// graph, maintaining the spanner and the serving state in place.
	Update(u, v int32, add bool) (oracle.UpdateResult, error)
	// Snapshot reports the live state; verify also rebuilds the spanner
	// from scratch server-side and reports whether the maintained one
	// matches.
	Snapshot(verify bool) oracle.SnapshotInfo
}

// OracleBackend adapts *oracle.Oracle to the Backend interface. The
// oracle's own methods (N, Dist, Route, DistTrace) already match; only
// the batch/stats shapes differ.
type OracleBackend struct {
	*oracle.Oracle
}

// AnswerBatch wraps oracle.AnswerBatch, which cannot fail.
func (b OracleBackend) AnswerBatch(qs []oracle.Query) ([]oracle.Answer, error) {
	return b.Oracle.AnswerBatch(qs), nil
}

// AnswerBatchTrace wraps oracle.AnswerBatchTrace, which cannot fail.
func (b OracleBackend) AnswerBatchTrace(qs []oracle.Query, tr *obs.ReqTrace) ([]oracle.Answer, error) {
	return b.Oracle.AnswerBatchTrace(qs, tr), nil
}

// StatsLine renders the oracle's serving report.
func (b OracleBackend) StatsLine() string { return b.Oracle.Stats().String() }

// StatsLineFrom renders the oracle's serving report from an existing
// registry snapshot (the oracle registers its counters in the registry
// the server snapshots).
func (b OracleBackend) StatsLineFrom(snap obs.Snapshot) string {
	return b.Oracle.StatsFrom(snap).String()
}

// DynamicBackend adapts *oracle.Dynamic to Backend (plus the Updatable,
// TracedBackend, and SnapshotStatser capabilities) — what dcserve mounts
// under -dynamic. The Dynamic's read lock makes queries consistent
// against concurrent updates; the adapter adds nothing on top.
type DynamicBackend struct {
	*oracle.Dynamic
}

// AnswerBatch wraps oracle.Dynamic.AnswerBatch, which cannot fail.
func (b DynamicBackend) AnswerBatch(qs []oracle.Query) ([]oracle.Answer, error) {
	return b.Dynamic.AnswerBatch(qs), nil
}

// AnswerBatchTrace wraps oracle.Dynamic.AnswerBatchTrace, which cannot
// fail.
func (b DynamicBackend) AnswerBatchTrace(qs []oracle.Query, tr *obs.ReqTrace) ([]oracle.Answer, error) {
	return b.Dynamic.AnswerBatchTrace(qs, tr), nil
}

// StatsLine renders the serving oracle's report.
func (b DynamicBackend) StatsLine() string { return b.Dynamic.Stats().String() }

// StatsLineFrom renders the report from an existing registry snapshot.
func (b DynamicBackend) StatsLineFrom(snap obs.Snapshot) string {
	return b.Dynamic.Oracle().StatsFrom(snap).String()
}
