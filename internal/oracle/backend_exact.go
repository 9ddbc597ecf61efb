package oracle

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
)

// exactBackend answers every query from a precomputed all-pairs distance
// table over the spanner: a triangular n(n−1)/2 int32 matrix built by
// one multi-source BFS sweep at construction time. Space is O(n²) —
// ~4·n²/2 bytes, which is why the tuner gates it on the memory budget —
// but queries are a single O(1) table load and every answer is exact on
// H (declared stretch bound 1). It is the backend of choice for small
// graphs, where the table fits comfortably and beats the bidirectional
// search.
type exactBackend struct {
	h       *graph.Graph
	tri     *graph.TriDist
	workers int

	pathExact atomic.Int64
}

// newExactBackend BFS-labels the whole graph by one multi-source sweep
// over every vertex. The sweep writes each row's upper-triangle slots
// only — distinct slots across rows — so the build is race-free and
// deterministic at any worker count.
func newExactBackend(h *graph.Graph, workers int) *exactBackend {
	n := h.N()
	b := &exactBackend{h: h, tri: graph.NewTriDist(n), workers: workers}
	srcs := make([]int32, n)
	for i := range srcs {
		srcs[i] = int32(i)
	}
	h.MultiSourceBFSSweep(srcs, workers, func(i int, src int32, dist []int32) {
		for v := src + 1; v < int32(n); v++ {
			b.tri.Set(src, v, dist[v])
		}
	})
	return b
}

// Name implements Backend.
func (b *exactBackend) Name() string { return BackendExactCached }

// StretchBound implements Backend: every answer is the exact spanner
// distance.
func (b *exactBackend) StretchBound() int { return 1 }

// MemoryBytes implements Backend: the triangular table.
func (b *exactBackend) MemoryBytes() int64 { return exactMemoryEstimate(b.h.N()) }

// exactMemoryEstimate is the table size for an n-vertex graph — usable
// before building, which is how the tuner skips the backend outright on
// graphs whose table cannot fit the budget.
func exactMemoryEstimate(n int) int64 {
	return 4 * int64(n) * int64(n-1) / 2
}

// Dist implements Backend: one table load. The table is exact, so the
// admissible upper bound equals the distance.
func (b *exactBackend) Dist(u, v int32) (Answer, uint8) {
	b.pathExact.Add(1)
	d := b.tri.At(u, v)
	return Answer{U: u, V: v, Dist: d, Bound: d, Exact: true}, obs.PathExact
}

// AnswerBatch implements Backend: the whole batch is table loads, so it
// always handles, filling valid non-self slots in parallel (each worker
// owns a contiguous index range — disjoint slots, deterministic output).
func (b *exactBackend) AnswerBatch(qs []Query, out []Answer) (uint8, bool) {
	n := int32(b.h.N())
	var served atomic.Int64
	graph.ParallelRangeWorkers(len(qs), b.workers, func(w, lo, hi int) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			q := qs[i]
			if q.U < 0 || q.V < 0 || q.U >= n || q.V >= n || q.U == q.V {
				continue // the Oracle's accounting loop fills these slots
			}
			d := b.tri.At(q.U, q.V)
			out[i] = Answer{U: q.U, V: q.V, Dist: d, Bound: d, Exact: true}
			local++
		}
		served.Add(local)
	})
	b.pathExact.Add(served.Load())
	return obs.PathExact, true
}

// attachMetrics implements Backend.
func (b *exactBackend) attachMetrics(reg *obs.Registry) {
	reg.CounterFuncLabeled(metricPathExact, "Resolutions served from the precomputed all-pairs table.",
		"backend", b.Name(), b.pathExact.Load)
}
