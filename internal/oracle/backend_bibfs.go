package oracle

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stats"
)

// bibfsBackend is the original serving engine (see the package doc),
// with nothing precomputed: a bidirectional BFS on H for the exact
// spanner distance, plus a bulk multi-source BFS arm for large batches.
// It declares stretch bound 1: every answer is exact on H, and its
// Bound is its Dist.
type bibfsBackend struct {
	h       *graph.Graph
	workers int

	pathBiBFS atomic.Int64
	pathBulk  atomic.Int64
	frontier  *stats.Histogram

	searchPool sync.Pool // *biScratch
}

// newBiBFSBackend serves h with pooled search scratch sized by n, which
// updates never change.
func newBiBFSBackend(h *graph.Graph, workers int) *bibfsBackend {
	b := &bibfsBackend{
		h:        h,
		workers:  workers,
		frontier: stats.NewHistogram(stats.ExpBuckets(1, 2, 22)),
	}
	b.searchPool.New = func() any { return newBiScratch(h.N()) }
	return b
}

// Name implements Backend.
func (b *bibfsBackend) Name() string { return BackendLandmarkBiBFS }

// StretchBound implements Backend: 1, every answer is exact on H.
func (b *bibfsBackend) StretchBound() int { return 1 }

// MemoryBytes implements Backend: nothing is precomputed.
func (b *bibfsBackend) MemoryBytes() int64 { return 0 }

// Dist implements Backend: a bidirectional BFS for the exact spanner
// distance.
func (b *bibfsBackend) Dist(u, v int32) (Answer, uint8) {
	sc := b.searchPool.Get().(*biScratch)
	d := sc.distance(b.h, u, v)
	b.frontier.Observe(float64(sc.maxFrontier))
	b.searchPool.Put(sc)
	b.pathBiBFS.Add(1)
	return Answer{U: u, V: v, Dist: d, Bound: d, Exact: true}, obs.PathBiBFS
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
func (b *bibfsBackend) AnswerBatch(qs []Query, out []Answer) (uint8, bool) {
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
			d := dist[q.V]
			out[qi] = Answer{U: q.U, V: q.V, Dist: d, Bound: d, Exact: true}
		}
	})
	b.pathBulk.Add(int64(valid))
	return obs.PathBulk, true
}

// attachMetrics implements Backend: every counter is labeled with the
// backend's name, so mixed-backend fleets scraped into one place stay
// distinguishable and per-backend path counts never blend.
func (b *bibfsBackend) attachMetrics(reg *obs.Registry) {
	label := b.Name()
	reg.CounterFuncLabeled(metricPathBiBFS, "Resolutions answered exactly by bidirectional BFS.",
		"backend", label, b.pathBiBFS.Load)
	reg.CounterFuncLabeled(metricPathBulk, "Batch queries answered exactly by the bulk multi-source BFS sweep.",
		"backend", label, b.pathBulk.Load)
	reg.RegisterHistogram(metricFrontierMax,
		"Largest single-side BFS frontier per exact search (vertices), counting the partial level the search stopped in at its first meeting.", b.frontier)
}
