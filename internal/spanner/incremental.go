package spanner

import (
	"math"

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
// or stays unclustered when it has none. A vertex v *wants* the edge
// {v, w} (see wants) when
//
//   - v is unclustered (it wants every incident edge);
//   - w is v's center (the star edge);
//   - w is v's smallest-id neighbor in w's cluster, and that cluster is
//     not v's (one bridge edge to each adjacent foreign cluster).
//
// An edge is in H exactly when one of its endpoints wants it. Every base
// edge {u,v} has a detour of length ≤ 3 in H — same cluster: u–c–v over
// two star edges; different clusters: v–w–c(u)–w' bridge+star; an
// unclustered endpoint keeps the edge outright — so H is a 3-spanner,
// certified by Verify in the test suite and by internal/check online.
//
// Locality. Toggling {u,v} changes only N(u) and N(v), so only
// cluster(u) and cluster(v) can change. Whether z wants {z, w} depends
// on N(z) and the cluster values of z and its neighbors, so an edge can
// change membership only when it touches u or v, or touches a neighbor
// of an endpoint whose cluster changed. One update re-evaluates the rule
// on exactly those edges — the Elkin–Neiman-style local-rule argument —
// and reports the spanner edges that moved as a Delta, from which the
// serving layer's backends patch their tables.
//
// Incremental does no internal locking; callers serialize updates
// against every reader of the live graphs that Graph and H expose (the
// oracle's Update holds its write lock across Insert/Delete, and its
// readers hold the read lock).
type Incremental struct {
	dg *graph.DynGraph
	h  *graph.DynGraph // the spanner, kept like dg

	isCenter []bool
	cluster  []int32 // center id, or -1 while unclustered

	delta Delta // the running update's edits to h; its slices keep their capacity
}

// Delta is the net change one applied update made to the spanner H: the
// edges it added and the edges it removed, each written U < V and never
// in both lists. Its slices are buffers the Incremental reuses on the
// next update, so read them before updating again.
type Delta struct {
	Added, Removed []graph.Edge
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
		isCenter: make([]bool, n),
		cluster:  make([]int32, n),
	}
	// Center coin: hash below the n^{-1/2} quantile of the uint64 range.
	// Graph-independent by design — edge churn never moves a center.
	thr := ^uint64(0)
	if n > 1 {
		thr = uint64(float64(thr) / math.Sqrt(float64(n)))
	}
	for v := 0; v < n; v++ {
		inc.isCenter[v] = centerHash(opts.Seed, int32(v)) < thr
	}
	for v := int32(0); v < int32(n); v++ {
		inc.cluster[v] = inc.clusterOf(v)
	}
	inc.h = graph.NewDynGraph(base.FilterEdges(inc.inH))
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

// H returns the live maintained spanner, the graph Insert and Delete
// repair in place: it is valid until the next update, like Graph. Spanner
// and Edges return copies that later updates do not touch.
func (inc *Incremental) H() *graph.Graph { return &inc.h.Graph }

// Seq returns the applied-update counter (delegates to the DynGraph).
func (inc *Incremental) Seq() uint64 { return inc.dg.Seq() }

// HM returns the current spanner edge count.
func (inc *Incremental) HM() int { return inc.h.M() }

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

// wants reports whether v wants the edge {v, w}, for a neighbor w of v,
// under the current graph and cluster values.
func (inc *Incremental) wants(v, w int32) bool {
	cv := inc.cluster[v]
	if cv < 0 || cv == w {
		return true
	}
	cw := inc.cluster[w]
	if cw < 0 || cw == cv {
		return false
	}
	for _, x := range inc.dg.Neighbors(v) { // sorted: first hit is min id
		if inc.cluster[x] == cw {
			return x == w
		}
	}
	return false
}

// inH is the spanner's rule: an edge of the live graph is in H exactly
// when one of its endpoints wants it.
func (inc *Incremental) inH(e graph.Edge) bool {
	return inc.wants(e.U, e.V) || inc.wants(e.V, e.U)
}

// reevaluate applies inH to every edge at x.
func (inc *Incremental) reevaluate(x int32) {
	for _, w := range inc.dg.Neighbors(x) {
		inc.setH(x, w, inc.inH(graph.Edge{U: x, V: w}))
	}
}

// setH puts {x, w} in H or takes it out, recording the edge in the
// update's delta when H changes. h's Insert and Delete cannot fail here:
// dg has already accepted the pair.
func (inc *Incremental) setH(x, w int32, in bool) {
	e := graph.Edge{U: x, V: w}.Normalize()
	if in {
		if changed, _ := inc.h.Insert(x, w); changed {
			inc.delta.Added = append(inc.delta.Added, e)
		}
	} else if changed, _ := inc.h.Delete(x, w); changed {
		inc.delta.Removed = append(inc.delta.Removed, e)
	}
}

// Insert adds the edge {u, v} to the live graph and maintains the
// spanner by local repair. It reports whether the graph changed and,
// when it did, the net delta the repair made to H (empty for a no-op).
// The delta's slices are reused by the next update.
func (inc *Incremental) Insert(u, v int32) (applied bool, delta Delta, err error) {
	return inc.update(u, v, true)
}

// Delete removes the edge {u, v} from the live graph and maintains the
// spanner by local repair. It reports whether the graph changed and the
// net H-edge delta, like Insert.
func (inc *Incremental) Delete(u, v int32) (applied bool, delta Delta, err error) {
	return inc.update(u, v, false)
}

func (inc *Incremental) update(u, v int32, add bool) (applied bool, delta Delta, err error) {
	if add {
		applied, err = inc.dg.Insert(u, v)
	} else {
		applied, err = inc.dg.Delete(u, v)
	}
	if err != nil || !applied {
		return applied, Delta{}, err
	}
	inc.delta = Delta{Added: inc.delta.Added[:0], Removed: inc.delta.Removed[:0]}
	// A deleted edge is no longer in N(u), so no re-evaluation reaches
	// it; after an insert this is a no-op.
	inc.setH(u, v, false)

	// Local maintenance: only the endpoints' clusters can move; the edges
	// at their neighbors are re-evaluated only when one did. At most one
	// endpoint's cluster moves (x's cluster can change only when the other
	// endpoint is a center, and a center's never does), and it moves
	// before any edge is evaluated, so every evaluation sees the final
	// state. An edge evaluated twice is therefore edited at most once,
	// and the recorded edits are the update's net delta.
	for _, x := range [2]int32{u, v} {
		if nc := inc.clusterOf(x); nc != inc.cluster[x] {
			inc.cluster[x] = nc
			for _, z := range inc.dg.Neighbors(x) {
				inc.reevaluate(z)
			}
		}
	}
	inc.reevaluate(u)
	inc.reevaluate(v)
	return true, inc.delta, nil
}

// Edges returns the current spanner edge set, each edge once with U < V,
// sorted lexicographically — the canonical form compared byte-for-byte
// by the incremental-vs-rebuilt differential. Later updates do not
// change the returned list.
func (inc *Incremental) Edges() []graph.Edge { return inc.h.Edges() }

// Spanner freezes the maintained structure into the immutable Spanner
// form over snapshots of the live graph and of H. The certified stretch
// is 3 by the per-edge detour argument in the type comment.
func (inc *Incremental) Spanner() *Spanner {
	h := inc.h.Snapshot()
	return &Spanner{Base: inc.dg.Snapshot(), H: h, Primary: h, Algorithm: "incremental-cluster3"}
}

// IncrementalAlpha is the distance stretch the incremental construction
// certifies: every base edge has a detour of ≤ 3 edges in H.
const IncrementalAlpha = 3
