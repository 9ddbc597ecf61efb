package oracle

import (
	"cmp"
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

	// The root set is kept from the delta: the sampled slots are drawn
	// once, and the hub with its degree is kept by nextHub.
	sample []int32
	hub    int32
	hubDeg int

	// Refresh scratch, reused by every refresh: the next root set and the
	// row repair's lists.
	next   []int32
	repair rowRepair

	pathBiBFS      atomic.Int64
	pathBulk       atomic.Int64
	repairVertices atomic.Int64
	rootSweeps     atomic.Int64
	frontier       *stats.Histogram

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
	hub, sample := hubOf(h), landmarkSample(h.N(), k, opts.Seed)
	roots := placeLandmarks(nil, hub, sample)
	lm := &landmarkTable{roots: roots, dist: h.MultiSourceBFSFrom(roots, 0)}
	lsp.SetKV("landmarks", len(lm.roots))
	lsp.End()
	b := &landmarkBackend{
		h:        h,
		lm:       lm,
		workers:  workers,
		sample:   sample,
		hub:      hub,
		hubDeg:   h.Degree(hub),
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

// refresh implements Backend: bring the landmark table to the one a
// fresh build on h holds, working from the delta alone. The sampled
// slots never change, so the root set changes only when the hub moves,
// and nextHub keeps the hub from the degrees the delta changed. Every row
// whose root stays is repaired in place from the delta (rowRepair), and
// a row whose root changed is swept from scratch. The table, its root
// slice and all scratch are reused, so a refresh that keeps the root set
// allocates nothing. Counters, the frontier histogram, the search pool
// (scratch is sized by n, which updates never change), and metric
// registrations (their closures read b.lm through the receiver) all
// survive.
func (b *landmarkBackend) refresh(h *graph.Graph, delta spanner.Delta) {
	lm := b.lm
	var fresh []int // rows whose root changed
	if hub := b.nextHub(h, delta); hub != b.hub {
		// With the slots sorted s_1 < … < s_{k−1}, index i of the root set
		// holds a vertex of (s_i, s_{i+1}] (s_0 = −1, s_k = n−1) whatever
		// the hub, so a root that stays keeps its index and its row, and
		// only the indices whose root changed are swept.
		b.hub = hub
		b.next = placeLandmarks(b.next, hub, b.sample)
		for i, r := range b.next {
			if r != lm.roots[i] {
				lm.roots[i] = r
				fresh = append(fresh, i)
			}
		}
	}
	b.hubDeg = h.Degree(b.hub)
	changed := 0
	for i, f := 0, 0; i < len(lm.roots); i++ {
		if f < len(fresh) && fresh[f] == i {
			f++
			continue
		}
		changed += b.repair.row(lm.dist.Row(i), h, delta)
	}
	if len(fresh) > 0 {
		srcs := make([]int32, len(fresh))
		for x, i := range fresh {
			srcs[x] = lm.roots[i]
		}
		h.MultiSourceBFSSweep(srcs, 0, func(x int, _ int32, dist []int32) {
			copy(lm.dist.Row(fresh[x]), dist)
		})
	}
	b.h = h
	b.repairVertices.Add(int64(changed))
	b.rootSweeps.Add(int64(len(fresh)))
}

// nextHub returns h's hub (hubOf), given that b.hub was the hub before
// delta with degree b.hubDeg. Only the delta's endpoints changed degree,
// and only an added edge's endpoint gained any, so unless the hub's own
// degree fell no other vertex can beat it; only then are all n degrees
// scanned again.
func (b *landmarkBackend) nextHub(h *graph.Graph, delta spanner.Delta) int32 {
	hub := b.hub
	if h.Degree(hub) < b.hubDeg {
		return hubOf(h)
	}
	for _, e := range delta.Added {
		for _, v := range [2]int32{e.U, e.V} {
			if dv, dh := h.Degree(v), h.Degree(hub); dv > dh || dv == dh && v < hub {
				hub = v
			}
		}
	}
	return hub
}

// leveled is a vertex with its level in a BFS row.
type leveled struct{ v, d int32 }

func byLevel(a, b leveled) int { return cmp.Compare(a.d, b.d) }

// rowRepair is the scratch of a landmark row repair. Each list holds only
// the vertices one repair touches and keeps its capacity for the next:
// no n-length array.
type rowRepair struct {
	far   []leveled // removed edges' far endpoints, at their old levels
	lost  []leveled // vertices that lost their level, with the old level
	seeds []leveled // the settling BFS's starts
	queue []leveled // the settling BFS's queue
}

// row rewrites d, the BFS row of a root on the spanner before delta, into
// its BFS row on h, the spanner after it, and returns how many entries
// changed. It is the unit-weight case of Ramalingam–Reps dynamic SSSP:
//
//  1. A removed edge {a, b} with d(a) < d(b) may have carried b's level;
//     the far endpoints are collected from the old levels, before any
//     level is overwritten.
//  2. Level by level from the lowest, a collected vertex v at level ℓ
//     keeps it when a neighbor in h at level ℓ−1 kept its own. Otherwise
//     v is lost: its entry is cleared, it is listed with ℓ, and its
//     neighbors at level ℓ+1 are collected in turn.
//  3. Each lost vertex starts from its best neighbor that holds a level,
//     each added edge is relaxed both ways, and one BFS bucketed by level
//     settles everything from those starts, only ever lowering an entry.
//
// The result is exact. A row is h's BFS row iff every edge of h joins
// two vertices at most one level apart (or two unreachable ones) and
// every reachable vertex but the root has a neighbor one level closer.
// After step 2 every entry left is the length of a path of h (a kept
// vertex has a kept neighbor one level closer, down to the root), and
// step 3 sets an entry only to one more than a neighbor's, so every entry
// stays a path length and none falls below its distance. An edge of h can
// join entries more than one apart only if it was added or an endpoint's
// entry was cleared or lowered, and step 3 relaxes each such edge: an
// added one both ways, a cleared vertex from all its neighbors, a settled
// vertex to all of its own at its final level. So both conditions hold
// at the end.
func (r *rowRepair) row(d []int32, h *graph.Graph, delta spanner.Delta) int {
	const unreached = graph.Unreachable
	far := r.far[:0]
	for _, e := range delta.Removed {
		// An old edge joins two reachable vertices or two unreachable
		// ones, so unequal levels are both finite.
		switch du, dv := d[e.U], d[e.V]; {
		case du < dv:
			far = append(far, leveled{e.V, dv})
		case dv < du:
			far = append(far, leveled{e.U, du})
		}
	}
	slices.SortFunc(far, byLevel)

	// lose clears v's entry l and lists v when no neighbor holds l−1.
	// Every lost vertex of level l−1 is cleared by then, so a neighbor
	// that holds l−1 kept it.
	lost := r.lost[:0]
	lose := func(v, l int32) {
		if d[v] != l { // lost already
			return
		}
		for _, w := range h.Neighbors(v) {
			if d[w] == l-1 {
				return
			}
		}
		d[v] = unreached
		lost = append(lost, leveled{v, l})
	}
	// lost[head:tail] are the lost vertices of level l−1, whose
	// neighbors at level l are collected after the far endpoints at l.
	next, head := 0, 0
	for l := int32(0); next < len(far) || head < len(lost); l++ {
		if head == len(lost) {
			l = far[next].d
		}
		tail := len(lost)
		for ; next < len(far) && far[next].d == l; next++ {
			lose(far[next].v, l)
		}
		for ; head < tail; head++ {
			for _, y := range h.Neighbors(lost[head].v) {
				lose(y, l)
			}
		}
	}

	seeds := r.seeds[:0]
	for _, x := range lost {
		best := unreached
		for _, w := range h.Neighbors(x.v) {
			if dw := d[w]; dw != unreached && (best == unreached || dw+1 < best) {
				best = dw + 1
			}
		}
		if best != unreached {
			d[x.v] = best
			seeds = append(seeds, leveled{x.v, best})
		}
	}
	for _, e := range delta.Added {
		for _, a := range [2][2]int32{{e.U, e.V}, {e.V, e.U}} {
			if from, to := d[a[0]], d[a[1]]; from != unreached && (to == unreached || to > from+1) {
				d[a[1]] = from + 1
				seeds = append(seeds, leveled{a[1], from + 1})
			}
		}
	}
	slices.SortFunc(seeds, byLevel)

	// Merge the sorted starts with the FIFO, so vertices settle in level
	// order and each is settled once, at its final level; an entry
	// lowered again after it was queued is skipped.
	q := r.queue[:0]
	changed := 0
	for s, qi := 0, 0; s < len(seeds) || qi < len(q); {
		var x leveled
		if qi == len(q) || s < len(seeds) && seeds[s].d <= q[qi].d {
			x, s = seeds[s], s+1
		} else {
			x, qi = q[qi], qi+1
		}
		if d[x.v] != x.d {
			continue
		}
		changed++
		for _, w := range h.Neighbors(x.v) {
			if dw := d[w]; dw == unreached || dw > x.d+1 {
				d[w] = x.d + 1
				q = append(q, leveled{w, x.d + 1})
			}
		}
	}
	// Every vertex settled above changed, except a lost one that settled
	// back at its old level; a lost one never settled is now unreachable.
	for _, x := range lost {
		switch d[x.v] {
		case x.d:
			changed--
		case unreached:
			changed++
		}
	}
	r.far, r.lost, r.seeds, r.queue = far, lost, seeds, q
	return changed
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
	reg.CounterFuncLabeled(metricRepairVertices, "Landmark row entries a refresh's row repair changed.",
		"backend", label, b.repairVertices.Load)
	reg.CounterFuncLabeled(metricRootSweeps, "Landmark rows swept from scratch for a root new to the set.",
		"backend", label, b.rootSweeps.Load)
	reg.RegisterHistogram(metricFrontierMax,
		"Largest single-side BFS frontier per exact search (vertices).", b.frontier)
	reg.GaugeFunc(metricLandmarks, "Landmark BFS trees precomputed on H.",
		readLocked(rl, func() float64 { return float64(len(b.lm.roots)) }))
}
