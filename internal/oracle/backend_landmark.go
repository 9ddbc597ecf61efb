package oracle

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/spanner"
	"repro/internal/stats"
)

// landmarkBackend is the original serving engine (see the package doc):
// a k-landmark upper-bound table and a bidirectional BFS for the
// exact-on-spanner distance, plus a bulk multi-source BFS arm for large
// batches. It declares stretch bound 1: every answer is exact on H.
type landmarkBackend struct {
	h       *graph.Graph
	lm      *landmarkTable
	workers int
	lmCount int    // resolved landmark count, kept for refresh
	seed    uint64 // landmark-selection seed, kept for refresh

	pathBiBFS atomic.Int64
	pathBulk  atomic.Int64
	frontier  *stats.Histogram

	searchPool sync.Pool // *biScratch
}

// newLandmarkBackend builds the landmark table per the Options
// default of 16 landmarks.
func newLandmarkBackend(h *graph.Graph, opts Options, workers int, trace *obs.Span) *landmarkBackend {
	k := opts.Landmarks
	if k == 0 {
		k = 16
	}
	lsp := trace.Start("landmark-table")
	lm := buildLandmarkTable(h, k, opts.Seed)
	lsp.SetKV("landmarks", len(lm.roots))
	lsp.End()
	b := &landmarkBackend{
		h:        h,
		lm:       lm,
		workers:  workers,
		lmCount:  k,
		seed:     opts.Seed,
		frontier: stats.NewHistogram(stats.ExpBuckets(1, 2, 22)),
	}
	b.searchPool.New = func() any { return newBiScratch(h.N()) }
	return b
}

// Name implements Backend.
func (b *landmarkBackend) Name() string { return BackendLandmarkBiBFS }

// StretchBound implements Backend: 1, every answer is exact on H.
func (b *landmarkBackend) StretchBound() int { return 1 }

// MemoryBytes implements Backend: the landmark rows.
func (b *landmarkBackend) MemoryBytes() int64 {
	return int64(4 * len(b.lm.roots) * (1 + b.h.N())) // roots + k×n rows
}

// Dist implements Backend: a bidirectional BFS for the exact spanner
// distance. The landmark bound is computed for every query (it rides in
// Answer.Bound) but does not prune the search.
func (b *landmarkBackend) Dist(u, v int32) (Answer, uint8) {
	sc := b.searchPool.Get().(*biScratch)
	d := sc.distance(b.h, u, v)
	b.frontier.Observe(float64(sc.maxFrontier))
	b.searchPool.Put(sc)
	b.pathBiBFS.Add(1)
	return Answer{U: u, V: v, Dist: d, Bound: b.lm.upperBound(u, v), Exact: true}, obs.PathBiBFS
}

// bulkMinBatch is the smallest batch the bulk sweep considers: below it
// the per-query bidirectional path wins outright and the grouping
// bookkeeping is not worth setting up.
const bulkMinBatch = 128

// AnswerBatch implements Backend: the bulk multi-source BFS arm. It
// groups the queries by source vertex, runs one full BFS row per
// distinct source (64 sources per word through the bit-parallel kernel
// when the spanner is dense enough), and reads each query's answer out
// of its source's row. A full BFS row is the exact spanner distance, so
// the arm matches the per-query search's every answer bit for bit; it
// runs only with enough source sharing (valid queries ≥ 2× distinct
// sources), since the sweep's cost is per-source while the per-query
// path's is per-query.
//
// Served queries land in the oracle_path_bulk counter instead of the
// per-query resolution-path counter.
func (b *landmarkBackend) AnswerBatch(qs []Query, out []Answer) (uint8, bool) {
	if len(qs) < bulkMinBatch {
		return 0, false
	}
	n := int32(b.h.N())
	invalid := func(q Query) bool {
		return q.U < 0 || q.V < 0 || q.U >= n || q.V >= n
	}
	// Count swept queries per source vertex (invalid and self queries are
	// the Oracle's accounting loop's, not the sweep's).
	cnt := make([]int32, n)
	valid := 0
	for _, q := range qs {
		if invalid(q) || q.U == q.V {
			continue
		}
		cnt[q.U]++
		valid++
	}
	srcs := make([]int32, 0, 64)
	for v := int32(0); v < n; v++ {
		if cnt[v] > 0 {
			srcs = append(srcs, v)
		}
	}
	if len(srcs) == 0 || valid < 2*len(srcs) {
		return 0, false
	}
	// Counting sort of query indices by source, so each BFS row is
	// consumed in one contiguous run: order[off[i]:off[i+1]] holds the
	// batch indices whose source is srcs[i].
	rowOf := make([]int32, n)
	off := make([]int32, len(srcs)+1)
	for i, s := range srcs {
		rowOf[s] = int32(i)
		off[i+1] = off[i] + cnt[s]
	}
	pos := append([]int32(nil), off[:len(srcs)]...)
	order := make([]int32, valid)
	for qi, q := range qs {
		if invalid(q) || q.U == q.V {
			continue
		}
		r := rowOf[q.U]
		order[pos[r]] = int32(qi)
		pos[r]++
	}
	// The sweep writes only out slots owned by its own row's queries, so
	// the batch result is byte-identical at any worker count.
	b.h.MultiSourceBFSSweep(srcs, b.workers, func(i int, src int32, dist []int32) {
		for _, qi := range order[off[i]:off[i+1]] {
			q := qs[qi]
			out[qi] = Answer{
				U: q.U, V: q.V,
				Dist:  dist[q.V],
				Bound: b.lm.upperBound(q.U, q.V),
				Exact: true,
			}
		}
	})
	b.pathBulk.Add(int64(valid))
	return obs.PathBulk, true
}

// refresh implements Backend: patch the landmark table to the one a
// fresh build on h holds. The root set is selected again, since it is
// deterministic in (seed, h). A row is re-swept when its root is new or
// when the delta can change it (rowStale); every other row is already
// exact on h and stays as it is, so an update that moves one H edge
// usually sweeps nothing. The table is patched in place unless the root
// set changed. Counters, the frontier histogram, the search pool
// (scratch is sized by n, which updates never change), and metric
// registrations (their closures read b.lm through the receiver) all
// survive.
func (b *landmarkBackend) refresh(h *graph.Graph, delta spanner.Delta) {
	old := b.lm
	roots := selectLandmarks(h, b.lmCount, b.seed)
	lm := old
	if !slices.Equal(roots, old.roots) {
		lm = &landmarkTable{roots: roots, dist: graph.NewFlatDist(len(roots), h.N())}
	}
	var stale []int // rows of lm to re-sweep
	for i, r := range roots {
		j, kept := slices.BinarySearch(old.roots, r)
		switch {
		case !kept || rowStale(old.dist.Row(j), h, delta):
			stale = append(stale, i)
		case lm != old:
			copy(lm.dist.Row(i), old.dist.Row(j))
		}
	}
	if len(stale) > 0 {
		srcs := make([]int32, len(stale))
		for x, i := range stale {
			srcs[x] = roots[i]
		}
		h.MultiSourceBFSSweep(srcs, 0, func(x int, _ int32, dist []int32) {
			copy(lm.dist.Row(stale[x]), dist)
		})
	}
	b.h, b.lm = h, lm
}

// rowStale reports whether delta can change d, a BFS row taken on the
// spanner before the delta, now that h is the spanner after it. A row d
// is exact on h when every edge of h joins two vertices at most one
// level apart (or two unreachable ones), so no path beats d, and every
// reachable vertex but the root has a neighbor one level closer, so
// every vertex has a path that meets d. d satisfied both on the old
// spanner; only delta edges can break them:
//
//   - an added edge {a, b} breaks the first when |d(a)−d(b)| > 1, or when
//     exactly one endpoint is unreachable;
//   - a removed edge {a, b} with d(a) ≠ d(b) breaks the second when its
//     far endpoint has no neighbor in h one level closer.
func rowStale(d []int32, h *graph.Graph, delta spanner.Delta) bool {
	for _, e := range delta.Added {
		da, db := d[e.U], d[e.V]
		if (da == graph.Unreachable) != (db == graph.Unreachable) || da-db > 1 || db-da > 1 {
			return true
		}
	}
	for _, e := range delta.Removed {
		far := e.U
		switch {
		case d[e.U] == d[e.V]: // equal levels, or both unreachable
			continue
		case d[e.V] > d[e.U]:
			far = e.V
		}
		if !slices.ContainsFunc(h.Neighbors(far), func(w int32) bool { return d[w] == d[far]-1 }) {
			return true
		}
	}
	return false
}

// Stats implements Backend.
func (b *landmarkBackend) Stats() BackendStats {
	return BackendStats{
		Name:         b.Name(),
		StretchBound: b.StretchBound(),
		MemoryBytes:  b.MemoryBytes(),
		Counters: map[string]int64{
			"path_bibfs": b.pathBiBFS.Load(),
			"path_bulk":  b.pathBulk.Load(),
			"landmarks":  int64(len(b.lm.roots)),
		},
	}
}

// attachMetrics implements Backend: every counter is labeled with the
// backend's name, so mixed-backend fleets scraped into one place stay
// distinguishable and per-backend path counts never blend.
func (b *landmarkBackend) attachMetrics(reg *obs.Registry, rl sync.Locker) {
	label := b.Name()
	reg.CounterFuncLabeled(metricPathBiBFS, "Resolutions answered exactly by bidirectional BFS.",
		"backend", label, b.pathBiBFS.Load)
	reg.CounterFuncLabeled(metricPathBulk, "Batch queries answered exactly by the bulk multi-source BFS sweep.",
		"backend", label, b.pathBulk.Load)
	reg.RegisterHistogram(metricFrontierMax,
		"Largest single-side BFS frontier per exact search (vertices).", b.frontier)
	reg.GaugeFunc(metricLandmarks, "Landmark BFS trees precomputed on H.",
		readLocked(rl, func() float64 { return float64(len(b.lm.roots)) }))
}
