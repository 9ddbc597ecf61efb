package graph

import (
	"fmt"
	"sort"
)

// DynGraph is the mutable companion of Graph: the same dense-vertex,
// simple, undirected model and the same adjacency representation (it
// embeds its Graph), plus edge insert/delete in O(deg) and a canonical
// Snapshot into a Graph that never changes. The vertex set is fixed at
// construction — the dynamic workload is edge churn on a live graph, not
// vertex churn — and adjacency lists stay sorted at all times, so every
// Graph method and kernel (BFS, multi-source sweeps, path search) runs
// unchanged on the live graph while it changes between calls.
//
// DynGraph does no internal locking: callers serialize mutations against
// every reader of the graph (the serving layer applies updates under the
// oracle's write lock and reads under its read lock).
type DynGraph struct {
	Graph
	seq uint64
}

// NewDynGraph returns a mutable copy of base. Its lists are carved from
// one fresh arena, so mutations never touch base's storage; the two share
// only base's edge list, which neither changes.
func NewDynGraph(base *Graph) *DynGraph {
	return &DynGraph{Graph: *base.clone()}
}

// Seq returns the number of applied mutations — a monotone version
// counter for snapshot/consistency protocols. No-op updates (inserting
// a present edge, deleting an absent one) do not advance it.
func (d *DynGraph) Seq() uint64 { return d.seq }

// HasEdge reports whether {u, v} is currently an edge. Self-queries and
// out-of-range endpoints return false.
func (d *DynGraph) HasEdge(u, v int32) bool {
	if u < 0 || v < 0 || int(u) >= d.n || int(v) >= d.n {
		return false
	}
	return d.Graph.HasEdge(u, v)
}

// check validates an endpoint pair for mutation.
func (d *DynGraph) check(u, v int32) error {
	if u < 0 || v < 0 || int(u) >= d.n || int(v) >= d.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, d.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	return nil
}

// Insert adds the edge {u, v}. It reports whether the graph changed —
// inserting a present edge is a no-op, not an error — and rejects
// out-of-range endpoints and self-loops.
func (d *DynGraph) Insert(u, v int32) (bool, error) {
	if err := d.check(u, v); err != nil {
		return false, err
	}
	if d.HasEdge(u, v) {
		return false, nil
	}
	d.insertArc(u, v)
	d.insertArc(v, u)
	d.m++
	d.mutated()
	return true, nil
}

// Delete removes the edge {u, v}. It reports whether the graph changed —
// deleting an absent edge is a no-op, not an error — and rejects
// out-of-range endpoints and self-loops.
func (d *DynGraph) Delete(u, v int32) (bool, error) {
	if err := d.check(u, v); err != nil {
		return false, err
	}
	if !d.HasEdge(u, v) {
		return false, nil
	}
	d.deleteArc(u, v)
	d.deleteArc(v, u)
	d.m--
	d.mutated()
	return true, nil
}

// mutated records an applied mutation. The edge list is dropped, not
// edited — a list Edges returned earlier stays as it was — and Edges
// builds it from the adjacency from now on.
func (d *DynGraph) mutated() {
	d.edges = nil
	d.seq++
}

// insertArc puts v into u's list. A list grows in place only within its
// own capacity, which a carved list never shares with its neighbor's.
func (d *DynGraph) insertArc(u, v int32) {
	nbrs := d.adj[u]
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	nbrs = append(nbrs, 0)
	copy(nbrs[i+1:], nbrs[i:])
	nbrs[i] = v
	d.adj[u] = nbrs
}

func (d *DynGraph) deleteArc(u, v int32) {
	nbrs := d.adj[u]
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	d.adj[u] = append(nbrs[:i], nbrs[i+1:]...)
}

// Snapshot freezes the current edge set into a Graph that later
// mutations do not touch, in the canonical form every consumer expects
// (each edge once with U < V, sorted lexicographically). Two DynGraphs
// holding the same edge set snapshot to identical graphs regardless of
// mutation history — the property the incremental-vs-rebuilt differential
// gate relies on. The lists are already sorted, so the snapshot is one
// linear copy of them plus the edge list.
func (d *DynGraph) Snapshot() *Graph { return d.clone() }
