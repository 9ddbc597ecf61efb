// Package graph implements the undirected simple-graph substrate used by
// every other package in this repository.
//
// Every graph keeps each vertex's neighbors as a sorted slice of its own,
// so HasEdge is a binary search and set operations over neighborhoods
// (common neighbor counting, the hot loop of Algorithm 1's supported-edge
// census) are linear merges. Built graphs carve those slices from one
// []int32 arena and never change; builders and filters produce new graphs.
// A DynGraph's own graph is the one that changes, under Insert and
// Delete, and its callers serialize those against its readers.
//
// Vertex ids are dense ints in [0, N). Edges are unordered pairs; the Edges
// slice lists each edge once with U < V.
//
// The package also hosts the worker-pool evaluation kernels the measurement
// layers build on (parallel.go, bitbfs.go): ParallelBFSFrom /
// ParallelBFSSweep for scalar multi-source BFS with per-worker reusable
// scratch, BitBFS and its BitParallelBFS* drivers advancing 64 sources per
// adjacency walk into row-major FlatDist tables, the adaptive
// MultiSourceBFSFrom / MultiSourceBFSSweep dispatchers that pick between
// the two by graph density alone, ParallelForEachEdge for per-edge work,
// and ParallelRangeWorkers, the one chunked pool all of them run on (it
// re-raises a worker panic on the caller). All of them honor one
// determinism contract — for a fixed input, results are identical for
// every worker count — which is what lets the experiment harness
// (internal/experiments), spanner validation (internal/spanner), and
// congestion accounting (internal/routing) parallelize without perturbing
// reported numbers. See DESIGN.md §9 and §12.
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge with U < V after normalization.
type Edge struct {
	U, V int32
}

// Normalize returns the edge with endpoints ordered U < V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e different from v. It panics if v is not
// an endpoint of e.
func (e Edge) Other(v int32) int32 {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d not an endpoint of edge %v", v, e))
}

// Graph is an undirected simple graph. A built graph never changes; the
// graph inside a DynGraph changes only through its Insert and Delete.
type Graph struct {
	n     int
	m     int
	adj   [][]int32 // adj[v] is v's sorted neighbor list
	edges []Edge    // each edge once, U < V, sorted; nil once a DynGraph has mutated
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int32) int { return len(g.adj[v]) }

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified; on a
// DynGraph's graph it is valid until the next mutation touching v.
func (g *Graph) Neighbors(v int32) []int32 { return g.adj[v] }

// HasEdge reports whether {u, v} is an edge. Self-queries return false.
func (g *Graph) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	// Search the smaller adjacency list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Edges returns all edges, each once with U < V, sorted lexicographically.
// The returned slice must not be modified. A built graph returns the list
// it keeps; a graph a DynGraph has mutated builds a fresh one from its
// adjacency on every call, so no read writes shared state and a list
// once returned never changes.
func (g *Graph) Edges() []Edge {
	if g.edges != nil || g.m == 0 {
		return g.edges
	}
	edges := make([]Edge, 0, g.m)
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			if int32(u) < v {
				edges = append(edges, Edge{U: int32(u), V: v})
			}
		}
	}
	return edges
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := int32(0); v < int32(g.n); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum vertex degree (0 for the empty graph).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := int32(1); v < int32(g.n); v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// IsRegular reports whether every vertex has the same degree, and if so,
// that degree.
func (g *Graph) IsRegular() (int, bool) {
	if g.n == 0 {
		return 0, true
	}
	d := g.Degree(0)
	for v := int32(1); v < int32(g.n); v++ {
		if g.Degree(v) != d {
			return 0, false
		}
	}
	return d, true
}

// CommonNeighbors counts |N(u) ∩ N(v)| by merging the two sorted lists.
// This is the inner kernel of the supported-edge census (Section 4).
func (g *Graph) CommonNeighbors(u, v int32) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
	count, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, g.m)
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are rejected at Build time (the substrate is simple
// graphs only, matching the paper's setting).
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder creates a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Order does not matter.
func (b *Builder) AddEdge(u, v int32) {
	if err := b.AddEdgeErr(u, v); err != nil {
		panic(err.Error())
	}
}

// AddEdgeErr is AddEdge with the validation reported as an error instead
// of a panic — the seam for layers fed by untrusted input (the graphio
// reader, fuzz harnesses), which must reject a bad edge without tearing
// down the process.
func (b *Builder) AddEdgeErr(u, v int32) error {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	b.edges = append(b.edges, Edge{u, v}.Normalize())
	return nil
}

// TryAddEdge adds {u,v} unless it is a self-loop, returning whether it was
// added. Duplicates are still deduplicated at Build time by Dedup builders;
// plain Build rejects them.
func (b *Builder) TryAddEdge(u, v int32) bool {
	if u == v {
		return false
	}
	b.AddEdge(u, v)
	return true
}

// Len returns the number of edges recorded so far (before deduplication).
func (b *Builder) Len() int { return len(b.edges) }

// N returns the vertex count the builder was created with.
func (b *Builder) N() int { return b.n }

// Build finalizes the graph. It returns an error if a duplicate edge was
// added.
func (b *Builder) Build() (*Graph, error) {
	sortEdges(b.edges)
	for i := 1; i < len(b.edges); i++ {
		if b.edges[i] == b.edges[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", b.edges[i].U, b.edges[i].V)
		}
	}
	return fromSortedEdges(b.n, b.edges), nil
}

// BuildDedup finalizes the graph, silently collapsing duplicate edges.
// Generators that may propose the same edge twice (e.g. the configuration
// model before repair) use this.
func (b *Builder) BuildDedup() *Graph {
	sortEdges(b.edges)
	out := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			out = append(out, e)
		}
	}
	return fromSortedEdges(b.n, out)
}

// MustBuild is Build that panics on error; for tests and generators whose
// edge sets are duplicate-free by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges constructs a graph from an edge list (deduplicated, self-loops
// rejected with a panic).
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.BuildDedup()
}

// fromSortedEdges builds the adjacency lists from a deduplicated list of
// normalized edges sorted by (U, V). Each vertex's list is carved from one
// arena with capacity equal to its degree and fills with its smaller
// neighbors in increasing order, then its larger ones, so every list comes
// out sorted. The slice is retained by the graph.
func fromSortedEdges(n int, edges []Edge) *Graph {
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	arena := make([]int32, 2*len(edges))
	adj := make([][]int32, n)
	lo := 0
	for v, d := range deg {
		adj[v] = arena[lo : lo : lo+int(d)]
		lo += int(d)
	}
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return &Graph{n: n, m: len(edges), adj: adj, edges: edges}
}

// clone returns a built graph with g's edge set, its lists carved from
// one fresh arena; the edge list is g's own when g keeps one.
func (g *Graph) clone() *Graph {
	arena := make([]int32, 0, 2*g.m)
	adj := make([][]int32, g.n)
	for v, nbrs := range g.adj {
		lo := len(arena)
		arena = append(arena, nbrs...)
		adj[v] = arena[lo:len(arena):len(arena)]
	}
	return &Graph{n: g.n, m: g.m, adj: adj, edges: g.Edges()}
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
}

// FilterEdges returns the spanning subgraph of g containing exactly the
// edges for which keep returns true. The vertex set is unchanged, matching
// the paper's definition of a spanner graph (V(H) = V(G), E(H) ⊆ E(G)).
func (g *Graph) FilterEdges(keep func(Edge) bool) *Graph {
	kept := make([]Edge, 0, g.m)
	for _, e := range g.Edges() {
		if keep(e) {
			kept = append(kept, e)
		}
	}
	return fromSortedEdges(g.n, kept)
}

// Union returns the spanning subgraph of the complete graph on g.N()
// vertices whose edge set is the union of g's and h's edges. Both graphs
// must have the same vertex count.
func Union(g, h *Graph) *Graph {
	if g.n != h.n {
		panic("graph: Union over different vertex counts")
	}
	edges := make([]Edge, 0, g.m+h.m)
	edges = append(edges, g.Edges()...)
	edges = append(edges, h.Edges()...)
	return FromEdges(g.n, edges)
}

// IsSubgraphOf reports whether every edge of g is an edge of h.
func (g *Graph) IsSubgraphOf(h *Graph) bool {
	if g.n != h.n {
		return false
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// InducedSubgraph returns the subgraph induced by the vertices with
// keep[v] == true, together with the mapping from new ids to original ids
// (new id i corresponds to original vertex origID[i]). Edges with either
// endpoint dropped disappear. len(keep) must equal N().
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []int32) {
	if len(keep) != g.n {
		panic("graph: InducedSubgraph keep length mismatch")
	}
	newID := make([]int32, g.n)
	origID := make([]int32, 0, g.n)
	for v := 0; v < g.n; v++ {
		if keep[v] {
			newID[v] = int32(len(origID))
			origID = append(origID, int32(v))
		} else {
			newID[v] = -1
		}
	}
	edges := make([]Edge, 0, g.m)
	for _, e := range g.Edges() {
		if keep[e.U] && keep[e.V] {
			edges = append(edges, Edge{U: newID[e.U], V: newID[e.V]}.Normalize())
		}
	}
	sortEdges(edges)
	return fromSortedEdges(len(origID), edges), origID
}

// EdgeIndex builds a map from normalized edge to its index in Edges().
// Useful for per-edge bookkeeping keyed by position.
func (g *Graph) EdgeIndex() map[Edge]int {
	idx := make(map[Edge]int, g.m)
	for i, e := range g.Edges() {
		idx[e] = i
	}
	return idx
}
