package spanner

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// Incremental maintains a stretch-3 cluster spanner of a mutating graph
// under edge inserts and deletes — the dynamic-workload counterpart of
// BaswanaSen (k = 2). The construction is deliberately a *pure function
// of the current edge set* (plus the fixed seed), which is what makes
// incremental maintenance equal to rebuilding from scratch, edge for
// edge — the property the internal/check differential gate enforces
// after every update batch.
//
// Construction. Every vertex hashes (seed, v) once; vertices whose hash
// falls below the n^{-1/2} quantile are cluster centers — a
// graph-independent coin, so updates never re-flip it. A non-center
// joins the cluster of its smallest-id center neighbor (its star edge),
// or stays unclustered when it has none. Each vertex v then *wants* a
// deterministic local edge set W(v):
//
//   - unclustered v wants every incident edge;
//   - clustered non-center v wants its star edge {v, center};
//   - every clustered v wants one bridge edge to each adjacent foreign
//     cluster — the edge to the smallest-id neighbor in that cluster.
//
// H is exactly the union of the W(v): an edge survives while at least
// one endpoint wants it (a refcount of 1 or 2). Every base edge {u,v}
// has a detour of length ≤ 3 in H — same cluster: u–c–v over two star
// edges; different clusters: v–w–c(u)–w' bridge+star; an unclustered
// endpoint keeps the edge outright — so H is a 3-spanner, certified by
// Verify in the test suite and by internal/check online.
//
// Locality. Toggling {u,v} changes only N(u) and N(v), so only
// cluster(u) and cluster(v) can change; W(z) of any other vertex z
// depends on N(z) (unchanged) and its neighbors' cluster values, so it
// changes only when z neighbors an endpoint whose cluster changed. One
// update therefore recomputes W over {u, v} ∪ N(u) ∪ N(v) at worst —
// the Elkin–Neiman-style local-rule argument — and the refcounts absorb
// the diff.
//
// Incremental does no internal locking; callers serialize updates
// (the oracle's Update holds its write lock across Insert/Delete).
type Incremental struct {
	dg   *graph.DynGraph
	seed uint64
	n    int

	isCenter []bool
	cluster  []int32        // center id, or -1 while unclustered
	want     [][]graph.Edge // W(v), sorted, as last applied to the refcounts
	ref      map[graph.Edge]int8
}

// IncrementalOptions configures NewIncremental.
type IncrementalOptions struct {
	// Seed keys the center hash. Two Incrementals with equal seeds over
	// equal edge sets hold identical spanners regardless of history.
	Seed uint64
}

// NewIncremental builds the maintained spanner over a copy of base.
func NewIncremental(base *graph.Graph, opts IncrementalOptions) *Incremental {
	n := base.N()
	inc := &Incremental{
		dg:       graph.NewDynGraph(base),
		seed:     opts.Seed,
		n:        n,
		isCenter: make([]bool, n),
		cluster:  make([]int32, n),
		want:     make([][]graph.Edge, n),
		ref:      make(map[graph.Edge]int8),
	}
	// Center coin: hash below the n^{-1/2} quantile of the uint64 range.
	// Graph-independent by design — edge churn never moves a center.
	thr := ^uint64(0)
	if n > 1 {
		thr = uint64(float64(thr) / math.Sqrt(float64(n)))
	}
	for v := 0; v < n; v++ {
		inc.isCenter[v] = centerHash(inc.seed, int32(v)) < thr
	}
	inc.recomputeAll()
	return inc
}

// centerHash is a splitmix64-style avalanche of (seed, v): a fixed,
// graph-independent coin per vertex.
func centerHash(seed uint64, v int32) uint64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(v+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Graph returns the live mutable graph the spanner tracks. Callers must
// mutate it only through Insert/Delete, never directly.
func (inc *Incremental) Graph() *graph.DynGraph { return inc.dg }

// Seq returns the applied-update counter (delegates to the DynGraph).
func (inc *Incremental) Seq() uint64 { return inc.dg.Seq() }

// HM returns the current spanner edge count.
func (inc *Incremental) HM() int { return len(inc.ref) }

// clusterOf recomputes v's cluster from its current neighborhood: v
// itself when v is a center, else the smallest-id center neighbor, else
// -1.
func (inc *Incremental) clusterOf(v int32) int32 {
	if inc.isCenter[v] {
		return v
	}
	for _, w := range inc.dg.Neighbors(v) { // sorted: first center is min id
		if inc.isCenter[w] {
			return w
		}
	}
	return -1
}

// wantOf computes W(v) fresh from the current graph and cluster values.
// The order is irrelevant (entries feed commutative refcounts); the
// edges themselves are normalized so both endpoints count the same key.
func (inc *Incremental) wantOf(v int32) []graph.Edge {
	nbrs := inc.dg.Neighbors(v)
	cv := inc.cluster[v]
	var out []graph.Edge
	if cv < 0 {
		for _, w := range nbrs {
			out = append(out, graph.Edge{U: v, V: w}.Normalize())
		}
		return out
	}
	if !inc.isCenter[v] {
		out = append(out, graph.Edge{U: v, V: cv}.Normalize())
	}
	seen := map[int32]bool{}
	for _, w := range nbrs { // sorted ⇒ first hit per cluster is min id
		cw := inc.cluster[w]
		if cw < 0 || cw == cv || seen[cw] {
			continue
		}
		seen[cw] = true
		out = append(out, graph.Edge{U: v, V: w}.Normalize())
	}
	return out
}

// applyVertex replaces v's contribution to the refcounts with a freshly
// computed W(v).
func (inc *Incremental) applyVertex(v int32) {
	for _, e := range inc.want[v] {
		if inc.ref[e]--; inc.ref[e] == 0 {
			delete(inc.ref, e)
		}
	}
	nw := inc.wantOf(v)
	for _, e := range nw {
		inc.ref[e]++
	}
	inc.want[v] = nw
}

// recomputeAll rebuilds clusters, want sets, and refcounts from scratch
// off the current edge set.
func (inc *Incremental) recomputeAll() {
	inc.ref = make(map[graph.Edge]int8, len(inc.ref))
	for v := int32(0); v < int32(inc.n); v++ {
		inc.cluster[v] = inc.clusterOf(v)
	}
	for v := int32(0); v < int32(inc.n); v++ {
		nw := inc.wantOf(v)
		for _, e := range nw {
			inc.ref[e]++
		}
		inc.want[v] = nw
	}
}

// Insert adds the edge {u, v} to the live graph and maintains the
// spanner by local repair. It reports whether the graph changed; the
// second result is always false.
func (inc *Incremental) Insert(u, v int32) (applied, _ bool, err error) {
	return inc.update(u, v, true)
}

// Delete removes the edge {u, v} from the live graph and maintains the
// spanner by local repair. It reports whether the graph changed; the
// second result is always false.
func (inc *Incremental) Delete(u, v int32) (applied, _ bool, err error) {
	return inc.update(u, v, false)
}

func (inc *Incremental) update(u, v int32, add bool) (applied, _ bool, err error) {
	if add {
		applied, err = inc.dg.Insert(u, v)
	} else {
		applied, err = inc.dg.Delete(u, v)
	}
	if err != nil || !applied {
		return applied, false, err
	}

	// Local maintenance: only the endpoints' clusters can move; their
	// neighbors re-derive W only when the adjacent cluster value changed.
	affected := []int32{u, v}
	for _, x := range [2]int32{u, v} {
		old := inc.cluster[x]
		nc := inc.clusterOf(x)
		if nc == old {
			continue
		}
		inc.cluster[x] = nc
		affected = append(affected, inc.dg.Neighbors(x)...)
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	var last int32 = -1
	for _, z := range affected {
		if z == last {
			continue
		}
		last = z
		inc.applyVertex(z)
	}
	return true, false, nil
}

// Edges returns the current spanner edge set, each edge once with U < V,
// sorted lexicographically — the canonical form compared byte-for-byte
// by the incremental-vs-rebuilt differential.
func (inc *Incremental) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(inc.ref))
	for e := range inc.ref {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Spanner freezes the maintained structure into the immutable Spanner
// form over a snapshot of the live graph. The certified stretch is 3 by
// the per-edge detour argument in the type comment.
func (inc *Incremental) Spanner() *Spanner {
	base := inc.dg.Snapshot()
	h := graph.FromEdges(inc.n, inc.Edges())
	return &Spanner{Base: base, H: h, Primary: h, Algorithm: "incremental-cluster3"}
}

// IncrementalAlpha is the distance stretch the incremental construction
// certifies: every base edge has a detour of ≤ 3 edges in H.
const IncrementalAlpha = 3
