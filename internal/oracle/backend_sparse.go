package oracle

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
)

// sparseBackend is the two-level hub/bunch design from the sparse-graph
// distance-oracle line of work (Thorup–Zwick stretch-3 instantiated the
// Agarwal–Godfrey–Har-Peled way, with explicit space knobs):
//
//   - a hub set A of k vertices with a full BFS row each (reusing the
//     landmark table machinery, so hub selection is deterministic in
//     (seed, h) and always includes the highest-degree vertex);
//   - per-vertex bunches B(u) = {w : d(u,w) < d(u,A)} storing the exact
//     distance to every vertex strictly closer than the nearest hub —
//     for a vertex with no hub in its component the bunch is its whole
//     component, which is what makes unreachability answers exact.
//
// A query (u, v) first probes v in B(u), then u in B(v); a hit is the
// exact distance. On a double miss the hub rows answer the upper bound
// min_a d(u,a)+d(a,v). Both misses certify d(u,A) ≤ d(u,v) and
// d(v,A) ≤ d(u,v), so the bound through u's nearest hub is at most
// 2·d(u,A)+d(u,v) ≤ 3·d(u,v): the declared stretch bound is 3. A miss
// with an unreachable hub bound certifies a disconnected pair: a
// connected pair with a finite distance either shares a bunch or has a
// finite d(u,A), putting a hub in the common component.
//
// Space is O(k·n) for the rows plus Σ|B(u)| bunch entries; uniform hub
// sampling gives E|B(u)| ≈ n/k, so k ≈ √n (the Options.SparseHubs
// default) balances the terms at O(n^{3/2}). Query time is two binary
// searches plus an O(k) hub scan.
type sparseBackend struct {
	h    *graph.Graph
	hubs *landmarkTable
	k    int // resolved hub count: the hub table's row count

	// Bunches in CSR layout, each bunch sorted by vertex id for binary
	// search: bunchW[bunchOff[u]:bunchOff[u+1]] are the members of B(u),
	// bunchD the matching exact distances.
	bunchOff []int32
	bunchW   []int32
	bunchD   []int32
	entries  int64 // len(bunchW), for MemoryBytes and the bunch gauge

	pathBunch atomic.Int64
	pathHub   atomic.Int64
}

// sparseHubSeed keys hub sampling off Options.Seed. It once decorrelated
// the hubs from landmark-bibfs's landmarks; it stays because every hub
// table depends on it.
const sparseHubSeed = 0x5b_a5e_0dd_b0b_cafe

// defaultSparseHubs is the hub-count default: ⌈√n⌉, the space-balancing
// point.
func defaultSparseHubs(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(n))))
}

// newSparseBackend selects the hub set and grows every bunch by bounded
// BFS. Bunch radii are exact — d(u,A)−1, or the whole component when no
// hub is reachable — never truncated: truncation would break both the
// stretch-3 proof and exact unreachability.
func newSparseBackend(h *graph.Graph, opts Options, workers int) *sparseBackend {
	n := h.N()
	k := opts.SparseHubs
	if k <= 0 {
		k = defaultSparseHubs(n)
	}
	if k > n {
		k = n
	}
	hubs := buildLandmarkTable(h, k, opts.Seed^sparseHubSeed)
	// d(u, A): the column minimum over the hub rows.
	dA := make([]int32, n)
	for u := range dA {
		dA[u] = graph.Unreachable
	}
	for i := 0; i < hubs.dist.Rows(); i++ {
		row := hubs.dist.Row(i)
		for u, d := range row {
			if d != graph.Unreachable && (dA[u] == graph.Unreachable || d < dA[u]) {
				dA[u] = d
			}
		}
	}
	// Grow bunches in parallel: each worker owns a contiguous vertex
	// range with private BFS scratch, writing only its own bunches[u]
	// slots, so the build is deterministic at any worker count.
	bunches := make([][]bunchEntry, n)
	graph.ParallelRangeWorkers(n, workers, func(w, lo, hi int) {
		bs := newBunchScratch(n)
		for u := lo; u < hi; u++ {
			bunches[u] = bs.grow(h, int32(u), dA[u])
		}
	})
	b := &sparseBackend{h: h, hubs: hubs, k: k, bunchOff: make([]int32, n+1)}
	total := 0
	for u := 0; u < n; u++ {
		total += len(bunches[u])
		b.bunchOff[u+1] = int32(total)
	}
	b.bunchW = make([]int32, total)
	b.bunchD = make([]int32, total)
	for u := 0; u < n; u++ {
		off := b.bunchOff[u]
		for i, e := range bunches[u] {
			b.bunchW[off+int32(i)] = e.w
			b.bunchD[off+int32(i)] = e.d
		}
	}
	b.entries = int64(total)
	return b
}

// bunchEntry is one bunch member with its exact distance from the owner.
type bunchEntry struct{ w, d int32 }

// bunchScratch is per-worker bounded-BFS state for bunch growth: stamp
// arrays make per-vertex reset O(bunch) instead of O(n).
type bunchScratch struct {
	dist  []int32
	stamp []int32
	gen   int32
	queue []int32
}

func newBunchScratch(n int) *bunchScratch {
	return &bunchScratch{dist: make([]int32, n), stamp: make([]int32, n), queue: make([]int32, 0, 64)}
}

// grow collects B(u) = {w ≠ u : d(u,w) < dAu} with exact distances,
// sorted by vertex id. dAu == graph.Unreachable means no radius bound —
// the bunch is u's whole component (minus u itself).
func (s *bunchScratch) grow(h *graph.Graph, u, dAu int32) []bunchEntry {
	if dAu == 0 {
		return nil // u is a hub: the bunch radius is empty
	}
	s.gen++
	if s.gen == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
	gen := s.gen
	s.queue = append(s.queue[:0], u)
	s.dist[u], s.stamp[u] = 0, gen
	var out []bunchEntry
	for head := 0; head < len(s.queue); head++ {
		x := s.queue[head]
		dx := s.dist[x]
		if dAu != graph.Unreachable && dx+1 >= dAu {
			continue // children would be at distance ≥ d(u,A): outside the bunch
		}
		for _, w := range h.Neighbors(x) {
			if s.stamp[w] == gen {
				continue
			}
			s.stamp[w] = gen
			s.dist[w] = dx + 1
			s.queue = append(s.queue, w)
			out = append(out, bunchEntry{w: w, d: dx + 1})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].w < out[j].w })
	return out
}

// lookup binary-searches w in B(u), returning the exact distance.
func (b *sparseBackend) lookup(u, w int32) (int32, bool) {
	lo, hi := b.bunchOff[u], b.bunchOff[u+1]
	ws := b.bunchW[lo:hi]
	i := sort.Search(len(ws), func(i int) bool { return ws[i] >= w })
	if i < len(ws) && ws[i] == w {
		return b.bunchD[lo+int32(i)], true
	}
	return 0, false
}

// Name implements Backend.
func (b *sparseBackend) Name() string { return BackendSparseHub }

// StretchBound implements Backend: 3, by the double-miss argument in
// the type's doc comment.
func (b *sparseBackend) StretchBound() int { return 3 }

// MemoryBytes implements Backend: k hub rows plus the bunch CSR of n+1
// offset words and the bunch entries.
func (b *sparseBackend) MemoryBytes() int64 {
	n := int64(b.h.N())
	return 4*int64(b.k)*(1+n) + 4*(n+1) + 8*b.entries
}

// sparseMemoryEstimate predicts the backend's footprint before building
// it: k·n for the rows and n·(n/k) expected bunch entries. An estimate,
// not a bound — the tuner re-checks the realized MemoryBytes after the
// build.
func sparseMemoryEstimate(n, k int) int64 {
	if k < 1 {
		k = 1
	}
	rows := 4 * int64(k) * int64(n+1)
	bunches := 8 * int64(n) * (int64(n)/int64(k) + 1)
	return rows + bunches
}

// Dist implements Backend: bunch probe both ways (exact on a hit), hub
// upper bound on a double miss — inexact unless it certifies an
// unreachable pair, which the double miss makes exact.
func (b *sparseBackend) Dist(u, v int32) (Answer, uint8) {
	ans := Answer{U: u, V: v, Exact: true}
	if d, ok := b.lookup(u, v); ok {
		b.pathBunch.Add(1)
		ans.Dist, ans.Bound = d, d
		return ans, obs.PathHub
	}
	if d, ok := b.lookup(v, u); ok {
		b.pathBunch.Add(1)
		ans.Dist, ans.Bound = d, d
		return ans, obs.PathHub
	}
	b.pathHub.Add(1)
	hb := b.hubs.upperBound(u, v)
	ans.Dist, ans.Bound = hb, hb
	if hb != graph.Unreachable {
		ans.Exact = false // a finite hub bound is within 3×, not exact
	}
	return ans, obs.PathHub
}

// AnswerBatch implements Backend: punts to the Oracle's per-query
// worker pool — bunch lookups are already cheap and independent, so a
// bulk arm would buy nothing over the work-stealing pool calling Dist.
func (b *sparseBackend) AnswerBatch(qs []Query, out []Answer) (uint8, bool) {
	return 0, false
}

// attachMetrics implements Backend.
func (b *sparseBackend) attachMetrics(reg *obs.Registry) {
	label := b.Name()
	reg.CounterFuncLabeled(metricPathBunch, "Resolutions answered exactly from a hub bunch.",
		"backend", label, b.pathBunch.Load)
	reg.CounterFuncLabeled(metricPathHub, "Resolutions served the O(k) hub upper bound.",
		"backend", label, b.pathHub.Load)
	reg.GaugeFunc(metricSparseHubs, "Hub BFS rows precomputed by the sparse-hub backend.",
		func() float64 { return float64(b.k) })
	reg.GaugeFunc(metricBunchEntries, "Total bunch entries held by the sparse-hub backend.",
		func() float64 { return float64(b.entries) })
}
