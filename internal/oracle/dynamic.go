package oracle

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/spanner"
	"repro/internal/stats"
)

// DynamicOptions configures NewDynamic.
type DynamicOptions struct {
	// Spanner configures the incremental maintenance layer (its seed).
	Spanner spanner.IncrementalOptions
	// Oracle configures the serving layer. Its Backend must be "",
	// BackendAuto or BackendLandmarkBiBFS, all of which serve
	// landmark-bibfs without running the tuner; the table backends are
	// refused with ErrDynamicBackend.
	Oracle Options
}

// UpdateResult reports what one edge update did.
type UpdateResult struct {
	// Applied is false for no-op updates (inserting a present edge,
	// deleting an absent one); nothing changed.
	Applied bool
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

// ErrStatic is Update's refusal on an oracle built by New or
// NewFromGraphs: only NewDynamic oracles own a live graph.
var ErrStatic = errors.New("updates not supported (static graph; start the server with a dynamic engine)")

// ErrDynamicBackend is NewDynamic's refusal of a backend that
// precomputes tables from the spanner (exact-cached, sparse-hub): no
// update keeps them current, so a dynamic oracle serves landmark-bibfs,
// which searches the live spanner and precomputes nothing.
var ErrDynamicBackend = errors.New("a dynamic oracle serves landmark-bibfs only")

// NewDynamic builds an oracle over a live graph: a mutable base graph and
// an incrementally maintained stretch-3 cluster spanner over it
// (spanner.Incremental), served with that spanner's certified stretch
// (spanner.IncrementalAlpha) by the landmark-bibfs backend. The oracle
// serves the live G and H the Incremental mutates — set once here, never
// copied — so Update repairs the spanner in place by its local cluster
// rule and the backend's searches read the result. Counters, histograms,
// and metric registrations survive every mutation. Options.Backend "" and
// BackendAuto serve landmark-bibfs without running the tuner;
// exact-cached and sparse-hub are refused with ErrDynamicBackend.
func NewDynamic(base *graph.Graph, opts DynamicOptions) (*Oracle, error) {
	switch opts.Oracle.Backend {
	case "", BackendAuto:
		opts.Oracle.Backend = BackendLandmarkBiBFS
	case BackendExactCached, BackendSparseHub:
		return nil, fmt.Errorf("oracle: backend %q: %w", opts.Oracle.Backend, ErrDynamicBackend)
	}
	inc := spanner.NewIncremental(base, opts.Spanner)
	o, err := NewFromGraphs(&inc.Graph().Graph, inc.H(), spanner.IncrementalAlpha, opts.Oracle)
	if err != nil {
		return nil, err
	}
	o.inc, o.sopt = inc, opts.Spanner
	o.repair = stats.NewLatencyHistogram()
	o.reg.RegisterHistogram(metricUpdateRepair,
		"Applied update stage: local spanner repair.", o.repair)
	return o, nil
}

// IsDynamic reports whether the oracle was built by NewDynamic and so
// accepts Update.
func (o *Oracle) IsDynamic() bool { return o.inc != nil }

// Update applies one edge mutation to the live graph and the maintained
// spanner under the oracle's write lock, so queries see either the old or
// the new (graph, spanner) state. No-op updates (Applied false) touch
// nothing. An applied update costs the local spanner repair, which
// mutates the served G and H in place; nothing is copied, and the
// backend has nothing to catch up. Its time is observed in the
// oracle_update_stage_repair_seconds histogram. A static oracle answers
// ErrStatic.
func (o *Oracle) Update(u, v int32, add bool) (UpdateResult, error) {
	if o.inc == nil {
		return UpdateResult{}, ErrStatic
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	t0 := time.Now()
	var (
		applied bool
		err     error
	)
	if add {
		applied, _, err = o.inc.Insert(u, v)
	} else {
		applied, _, err = o.inc.Delete(u, v)
	}
	res := UpdateResult{
		Applied: applied,
		M:       o.g.M(),
		HM:      o.h.M(),
		Seq:     o.inc.Seq(),
	}
	if err == nil && applied {
		o.repair.Observe(time.Since(t0).Seconds())
	}
	return res, err
}

// Snapshot reports the served state: edge counts, the applied-update
// counter (0 on a static oracle), and digests of both graphs. With verify
// set, a dynamic oracle also rebuilds the spanner from scratch off the
// current edge set (same seed) and reports whether the maintained one
// matches — the wire-reachable form of the incremental-vs-rebuilt
// differential. Under the read lock a dynamic oracle copies its two live
// graphs (two linear copies, which is what a snapshot stalls writers
// for); the hashing and the rebuild run after the lock is released.
func (o *Oracle) Snapshot(verify bool) SnapshotInfo {
	o.mu.RLock()
	g, h := o.g, o.h
	var seq uint64
	if o.inc != nil {
		s := o.inc.Spanner()
		g, h, seq = s.Base, s.H, o.inc.Seq()
	}
	o.mu.RUnlock()
	info := SnapshotInfo{
		N:           g.N(),
		M:           g.M(),
		HM:          h.M(),
		Seq:         seq,
		GraphHash:   edgeSetHash(g.Edges()),
		SpannerHash: edgeSetHash(h.Edges()),
	}
	if verify && o.inc != nil {
		info.Verified = true
		fresh := spanner.NewIncremental(g, o.sopt)
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
