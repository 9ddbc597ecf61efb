package graph

import (
	"fmt"
	"sort"
)

// DynGraph is the mutable companion of Graph: the same dense-vertex,
// simple, undirected model, but with edge insert/delete in O(deg) and a
// canonical Snapshot back into the immutable CSR form. The vertex set is
// fixed at construction — the dynamic workload is edge churn on a live
// graph, not vertex churn — and adjacency lists stay sorted at all
// times, so Neighbors and HasEdge keep the semantics (and determinism)
// of their immutable counterparts while the graph changes underneath.
//
// DynGraph does no internal locking: callers serialize mutations (the
// serving layer applies updates under the oracle's update lock).
type DynGraph struct {
	n   int
	m   int
	seq uint64
	adj [][]int32 // sorted within each vertex's list
}

// NewDynGraph returns a mutable copy of base. The base graph is not
// retained; subsequent mutations never alias its storage.
func NewDynGraph(base *Graph) *DynGraph {
	d := &DynGraph{n: base.N(), m: base.M(), adj: make([][]int32, base.N())}
	for v := int32(0); v < int32(d.n); v++ {
		nbrs := base.Neighbors(v)
		d.adj[v] = append(make([]int32, 0, len(nbrs)), nbrs...)
	}
	return d
}

// N returns the (fixed) number of vertices.
func (d *DynGraph) N() int { return d.n }

// M returns the current number of edges.
func (d *DynGraph) M() int { return d.m }

// Seq returns the number of applied mutations — a monotone version
// counter for snapshot/consistency protocols. No-op updates (inserting
// a present edge, deleting an absent one) do not advance it.
func (d *DynGraph) Seq() uint64 { return d.seq }

// Degree returns the current degree of v.
func (d *DynGraph) Degree(v int32) int { return len(d.adj[v]) }

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage: it must not be modified, and it is only
// valid until the next mutation touching v.
func (d *DynGraph) Neighbors(v int32) []int32 { return d.adj[v] }

// HasEdge reports whether {u, v} is currently an edge. Self-queries
// return false.
func (d *DynGraph) HasEdge(u, v int32) bool {
	if u == v || u < 0 || v < 0 || int(u) >= d.n || int(v) >= d.n {
		return false
	}
	if len(d.adj[u]) > len(d.adj[v]) {
		u, v = v, u
	}
	nbrs := d.adj[u]
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
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
	d.seq++
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
	d.seq++
	return true, nil
}

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

// Snapshot freezes the current edge set into an immutable Graph in the
// canonical form every consumer expects (each edge once with U < V,
// sorted lexicographically). Two DynGraphs holding the same edge set
// snapshot to byte-identical graphs regardless of mutation history —
// the property the incremental-vs-rebuilt differential gate relies on.
//
// The adjacency lists are already sorted, so the snapshot is one linear
// copy: each list goes straight into its CSR window, and its neighbors
// above the vertex, emitted in vertex order, form the sorted edge list.
func (d *DynGraph) Snapshot() *Graph {
	off := make([]int32, d.n+1)
	for v, nbrs := range d.adj {
		off[v+1] = off[v] + int32(len(nbrs))
	}
	adj := make([]int32, 2*d.m)
	edges := make([]Edge, 0, d.m)
	for u, nbrs := range d.adj {
		copy(adj[off[u]:], nbrs)
		for _, v := range nbrs {
			if int32(u) < v {
				edges = append(edges, Edge{U: int32(u), V: v})
			}
		}
	}
	return &Graph{n: d.n, m: d.m, off: off, adj: adj, edges: edges}
}
