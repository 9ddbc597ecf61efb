package oracle

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/spanner"
)

// Dynamic is the live-graph serving engine: a mutable base graph, an
// incrementally maintained stretch-3 cluster spanner over it
// (spanner.Incremental), and an Oracle answering queries on the current
// spanner. Updates repair everything in place — the spanner by its local
// cluster rule, the oracle backend through Backend.refresh — so
// counters, caches, histograms, and metric registrations survive every
// mutation instead of being torn down per update.
//
// Concurrency: an RWMutex serializes updates (exclusive) against queries
// (shared). Queries between two updates see a consistent
// (graph, spanner, backend) triple; the Oracle itself is concurrency-
// safe under the read lock exactly as it is for a static graph.
type Dynamic struct {
	mu   sync.RWMutex
	inc  *spanner.Incremental
	o    *Oracle
	sopt spanner.IncrementalOptions // kept for Snapshot's verify rebuild
}

// DynamicOptions configures NewDynamic.
type DynamicOptions struct {
	// Spanner configures the incremental maintenance layer (seed,
	// rebuild threshold).
	Spanner spanner.IncrementalOptions
	// Oracle configures the serving layer. Backend "auto" is tuned once,
	// at startup — updates refresh the chosen backend, they never re-run
	// the tuner.
	Oracle Options
}

// UpdateResult reports what one edge update did.
type UpdateResult struct {
	// Applied is false for no-op updates (inserting a present edge,
	// deleting an absent one); nothing changed.
	Applied bool
	// Rebuilt reports that spanner maintenance fell back to a full
	// recompute under its dirty-fraction threshold (the result is
	// identical either way — see spanner.Incremental).
	Rebuilt bool
	// M and HM are the base-graph and spanner edge counts after the
	// update.
	M, HM int
	// Seq is the applied-update counter after the update.
	Seq uint64
}

// SnapshotInfo describes the engine's current state, hashed so two ends
// of a connection (or a differential harness) can compare states without
// shipping edge lists.
type SnapshotInfo struct {
	// N, M are the live graph's vertex and edge counts; HM is the
	// maintained spanner's edge count.
	N, M, HM int
	// Seq is the applied-update counter.
	Seq uint64
	// GraphHash and SpannerHash are FNV-1a digests of the canonical
	// (sorted, U < V) edge lists of the live graph and the spanner.
	GraphHash, SpannerHash uint64
	// Verified reports that the snapshot re-derived the spanner from
	// scratch off the current edge set and compared it to the maintained
	// one; Consistent is that comparison (always false when Verified is
	// false).
	Verified, Consistent bool
}

// NewDynamic builds the engine over a starting graph. The oracle serves
// the incremental spanner with its certified stretch
// (spanner.IncrementalAlpha).
func NewDynamic(base *graph.Graph, opts DynamicOptions) (*Dynamic, error) {
	inc := spanner.NewIncremental(base, opts.Spanner)
	s := inc.Spanner()
	o, err := NewFromGraphs(s.Base, s.H, spanner.IncrementalAlpha, opts.Oracle)
	if err != nil {
		return nil, err
	}
	return &Dynamic{inc: inc, o: o, sopt: opts.Spanner}, nil
}

// Update applies one edge mutation end to end: the live graph, the
// maintained spanner, and the oracle backend's precomputed state. No-op
// updates (Applied false) touch nothing. The cost of an applied update
// is the local spanner rule plus one snapshot materialization plus the
// backend's refresh.
func (d *Dynamic) Update(u, v int32, add bool) (UpdateResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var (
		applied, rebuilt bool
		err              error
	)
	if add {
		applied, rebuilt, err = d.inc.Insert(u, v)
	} else {
		applied, rebuilt, err = d.inc.Delete(u, v)
	}
	res := UpdateResult{
		Applied: applied,
		Rebuilt: rebuilt,
		M:       d.inc.Graph().M(),
		HM:      d.inc.HM(),
		Seq:     d.inc.Seq(),
	}
	if err != nil || !applied {
		return res, err
	}
	s := d.inc.Spanner()
	d.o.applyUpdate(s.Base, s.H)
	return res, nil
}

// Snapshot reports the engine's current state. With verify set it also
// rebuilds the spanner from scratch off the current edge set (same seed)
// and reports whether the maintained one matches — the wire-reachable
// form of the incremental-vs-rebuilt differential.
func (d *Dynamic) Snapshot(verify bool) SnapshotInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	dg := d.inc.Graph()
	snap := dg.Snapshot()
	hEdges := d.inc.Edges()
	info := SnapshotInfo{
		N:           dg.N(),
		M:           dg.M(),
		HM:          len(hEdges),
		Seq:         dg.Seq(),
		GraphHash:   edgeSetHash(snap.Edges()),
		SpannerHash: edgeSetHash(hEdges),
	}
	if verify {
		info.Verified = true
		fresh := spanner.NewIncremental(snap, d.sopt)
		info.Consistent = edgeSetHash(fresh.Edges()) == info.SpannerHash &&
			fresh.HM() == info.HM
	}
	return info
}

// edgeSetHash is the FNV-1a digest of a canonical edge list, 8 bytes per
// edge in little-endian (u, v) order.
func edgeSetHash(edges []graph.Edge) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(x >> (8 * i)))
			h *= prime
		}
	}
	for _, e := range edges {
		mix(uint32(e.U))
		mix(uint32(e.V))
	}
	return h
}

// Oracle returns the serving oracle for read-only introspection (stats,
// tuner report, registry). The pointer is stable across updates — the
// engine repairs the oracle in place.
func (d *Dynamic) Oracle() *Oracle { return d.o }

// N returns the (fixed) vertex count.
func (d *Dynamic) N() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.o.N()
}

// Dist answers one distance query on the current spanner.
func (d *Dynamic) Dist(u, v int32) (Answer, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.o.Dist(u, v)
}

// DistTrace is Dist recording resolution spans into tr.
func (d *Dynamic) DistTrace(u, v int32, tr *obs.ReqTrace) (Answer, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.o.DistTrace(u, v, tr)
}

// AnswerBatch answers a batch on the current spanner.
func (d *Dynamic) AnswerBatch(qs []Query) []Answer {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.o.AnswerBatch(qs)
}

// AnswerBatchTrace is AnswerBatch recording resolution spans into tr.
func (d *Dynamic) AnswerBatchTrace(qs []Query, tr *obs.ReqTrace) []Answer {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.o.AnswerBatchTrace(qs, tr)
}

// Route answers one routing query on the current spanner.
func (d *Dynamic) Route(u, v int32) (routing.Path, Answer, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.o.Route(u, v)
}

// Stats snapshots the serving counters.
func (d *Dynamic) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.o.Stats()
}
