package graph

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func path(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.MustBuild()
}

func cycle(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.MustBuild()
}

func complete(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := path(t, 5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("got n=%d m=%d, want 5, 4", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("path edge (0,1) missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("unexpected edge (0,2)")
	}
	if g.HasEdge(3, 3) {
		t.Error("self-query must be false")
	}
	if d := g.Degree(0); d != 1 {
		t.Errorf("Degree(0) = %d, want 1", d)
	}
	if d := g.Degree(2); d != 2 {
		t.Errorf("Degree(2) = %d, want 2", d)
	}
}

func TestBuilderDuplicateRejected(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a duplicate edge")
	}
}

func TestBuildDedupCollapses(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 2)
	g := b.BuildDedup()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(2,2) did not panic")
		}
	}()
	NewBuilder(3).AddEdge(2, 2)
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(3, 5)
	b.AddEdge(3, 0)
	b.AddEdge(3, 4)
	b.AddEdge(3, 1)
	g := b.MustBuild()
	nbrs := g.Neighbors(3)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("neighbors not sorted: %v", nbrs)
		}
	}
}

func TestEdgesNormalized(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(3, 1)
	b.AddEdge(2, 0)
	g := b.MustBuild()
	for _, e := range g.Edges() {
		if e.U >= e.V {
			t.Errorf("edge %v not normalized", e)
		}
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{2, 7}
	if e.Other(2) != 7 || e.Other(7) != 2 {
		t.Fatal("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestIsRegular(t *testing.T) {
	if d, ok := cycle(t, 8).IsRegular(); !ok || d != 2 {
		t.Errorf("cycle: got (%d,%v), want (2,true)", d, ok)
	}
	if _, ok := path(t, 8).IsRegular(); ok {
		t.Error("path reported regular")
	}
	if d, ok := complete(t, 5).IsRegular(); !ok || d != 4 {
		t.Errorf("K5: got (%d,%v), want (4,true)", d, ok)
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := complete(t, 6)
	if c := g.CommonNeighbors(0, 1); c != 4 {
		t.Errorf("K6 common(0,1) = %d, want 4", c)
	}
	p := path(t, 5)
	if c := p.CommonNeighbors(0, 2); c != 1 {
		t.Errorf("path common(0,2) = %d, want 1", c)
	}
	if c := p.CommonNeighbors(0, 4); c != 0 {
		t.Errorf("path common(0,4) = %d, want 0", c)
	}
}

func TestBFSPathGraph(t *testing.T) {
	g := path(t, 10)
	dist := g.BFS(0)
	for v := 0; v < 10; v++ {
		if dist[v] != int32(v) {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
}

func TestDistAndDistWithin(t *testing.T) {
	g := cycle(t, 10)
	if d := g.Dist(0, 5); d != 5 {
		t.Errorf("Dist(0,5) = %d, want 5", d)
	}
	if d := g.Dist(0, 7); d != 3 {
		t.Errorf("Dist(0,7) = %d, want 3", d)
	}
	if d := g.DistWithin(0, 5, 4); d != Unreachable {
		t.Errorf("DistWithin(0,5,4) = %d, want Unreachable", d)
	}
	if d := g.DistWithin(0, 5, 5); d != 5 {
		t.Errorf("DistWithin(0,5,5) = %d, want 5", d)
	}
}

func TestDistDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	if d := g.Dist(0, 3); d != Unreachable {
		t.Errorf("Dist across components = %d, want Unreachable", d)
	}
	if g.Connected() {
		t.Error("Connected() true for 2-component graph")
	}
	_, cnt := g.Components()
	if cnt != 2 {
		t.Errorf("component count = %d, want 2", cnt)
	}
}

func TestShortestPathValid(t *testing.T) {
	g := cycle(t, 9)
	p := g.ShortestPath(0, 4)
	if len(p) != 5 {
		t.Fatalf("path length %d, want 5 vertices", len(p))
	}
	if p[0] != 0 || p[len(p)-1] != 4 {
		t.Fatalf("endpoints wrong: %v", p)
	}
	for i := 1; i < len(p); i++ {
		if !g.HasEdge(p[i-1], p[i]) {
			t.Fatalf("non-edge in path: %d-%d", p[i-1], p[i])
		}
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := path(t, 3)
	p := g.ShortestPath(1, 1)
	if len(p) != 1 || p[0] != 1 {
		t.Fatalf("self path = %v", p)
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := path(t, 7)
	ecc, all := g.Eccentricity(0)
	if !all || ecc != 6 {
		t.Errorf("ecc(0) = %d,%v; want 6,true", ecc, all)
	}
	d, conn := g.DiameterLowerBound(3)
	if !conn || d != 6 {
		t.Errorf("diameter = %d,%v; want 6,true", d, conn)
	}
}

func TestFilterEdges(t *testing.T) {
	g := complete(t, 5)
	h := g.FilterEdges(func(e Edge) bool { return e.U == 0 })
	if h.M() != 4 {
		t.Fatalf("star filter kept %d edges, want 4", h.M())
	}
	if h.N() != g.N() {
		t.Fatal("FilterEdges changed vertex count")
	}
	if !h.IsSubgraphOf(g) {
		t.Fatal("filtered graph not a subgraph")
	}
}

func TestUnion(t *testing.T) {
	a := path(t, 4)
	bld := NewBuilder(4)
	bld.AddEdge(0, 3)
	bld.AddEdge(0, 1) // overlap with path
	b := bld.MustBuild()
	u := Union(a, b)
	if u.M() != 4 {
		t.Fatalf("union has %d edges, want 4", u.M())
	}
	if !a.IsSubgraphOf(u) || !b.IsSubgraphOf(u) {
		t.Fatal("union misses an input edge")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := complete(t, 6)
	keep := []bool{true, false, true, true, false, true} // keep 0,2,3,5
	sub, orig := g.InducedSubgraph(keep)
	if sub.N() != 4 {
		t.Fatalf("n = %d, want 4", sub.N())
	}
	if sub.M() != 6 { // K4
		t.Fatalf("m = %d, want 6", sub.M())
	}
	want := []int32{0, 2, 3, 5}
	for i, v := range orig {
		if v != want[i] {
			t.Fatalf("origID = %v", orig)
		}
	}
	// Induced edges map back to original edges.
	for _, e := range sub.Edges() {
		if !g.HasEdge(orig[e.U], orig[e.V]) {
			t.Fatalf("induced edge %v not in original", e)
		}
	}
}

func TestInducedSubgraphEmptyAndFull(t *testing.T) {
	g := cycle(t, 5)
	none, _ := g.InducedSubgraph(make([]bool, 5))
	if none.N() != 0 || none.M() != 0 {
		t.Fatal("empty keep not empty")
	}
	all := []bool{true, true, true, true, true}
	full, orig := g.InducedSubgraph(all)
	if full.N() != 5 || full.M() != 5 {
		t.Fatal("full keep changed the graph")
	}
	for i, v := range orig {
		if int32(i) != v {
			t.Fatal("identity mapping broken")
		}
	}
}

func TestInducedSubgraphBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on keep length mismatch")
		}
	}()
	cycle(t, 4).InducedSubgraph([]bool{true})
}

func TestEdgeIndex(t *testing.T) {
	g := cycle(t, 5)
	idx := g.EdgeIndex()
	if len(idx) != g.M() {
		t.Fatalf("index size %d, want %d", len(idx), g.M())
	}
	for i, e := range g.Edges() {
		if idx[e] != i {
			t.Fatalf("index[%v] = %d, want %d", e, idx[e], i)
		}
	}
}

func TestBFSScratchMatchesBFS(t *testing.T) {
	r := rng.New(7)
	g := randomGraph(r, 60, 150)
	s := NewBFSScratch(g.N())
	for trial := 0; trial < 200; trial++ {
		u := int32(r.Intn(g.N()))
		v := int32(r.Intn(g.N()))
		want := g.Dist(u, v)
		got := s.DistWithin(g, u, v, -1)
		if got != want {
			t.Fatalf("scratch dist(%d,%d) = %d, want %d", u, v, got, want)
		}
	}
}

func TestBFSScratchLimit(t *testing.T) {
	g := path(t, 12)
	s := NewBFSScratch(g.N())
	if d := s.DistWithin(g, 0, 4, 3); d != Unreachable {
		t.Errorf("limited dist = %d, want Unreachable", d)
	}
	if d := s.DistWithin(g, 0, 3, 3); d != 3 {
		t.Errorf("limited dist = %d, want 3", d)
	}
}

func TestPathWithin(t *testing.T) {
	g := cycle(t, 8)
	s := NewBFSScratch(g.N())
	parent := make([]int32, g.N())
	p := s.PathWithin(g, 0, 3, 3, parent)
	if len(p) != 4 || p[0] != 0 || p[3] != 3 {
		t.Fatalf("PathWithin = %v", p)
	}
	for i := 1; i < len(p); i++ {
		if !g.HasEdge(p[i-1], p[i]) {
			t.Fatalf("non-edge in path %v", p)
		}
	}
	if p2 := s.PathWithin(g, 0, 4, 3, parent); p2 != nil {
		t.Fatalf("PathWithin beyond limit returned %v", p2)
	}
}

// Regression for the PathWithin capacity panic: limit == -1 used to size
// the path slice with capacity limit+1 == 0 (harmless but undersized), and
// any other negative "unlimited" limit panicked with a negative capacity.
func TestPathWithinUnlimitedReconstruction(t *testing.T) {
	// Path graph 0-1-...-9: the unique shortest path has 10 vertices.
	n := 10
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g := b.BuildDedup()
	s := NewBFSScratch(n)
	parent := make([]int32, n)
	want := make([]int32, n)
	for i := range want {
		want[i] = int32(i)
	}
	for _, limit := range []int32{-1, -5, int32(n)} {
		got := s.PathWithin(g, 0, int32(n-1), limit, parent)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("limit %d: path %v, want %v", limit, got, want)
		}
	}
	// Too-tight limit: no path.
	if got := s.PathWithin(g, 0, int32(n-1), 3, parent); got != nil {
		t.Fatalf("limit 3: path %v, want nil", got)
	}
	// Disconnected target: nil even unlimited.
	b2 := NewBuilder(3)
	b2.AddEdge(0, 1)
	g2 := b2.BuildDedup()
	s2 := NewBFSScratch(3)
	if got := s2.PathWithin(g2, 0, 2, -1, make([]int32, 3)); got != nil {
		t.Fatalf("disconnected: path %v, want nil", got)
	}
}

// randomGraph builds a random simple graph with up to m attempted edges.
func randomGraph(r *rng.RNG, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.BuildDedup()
}

func TestParallelForEachEdge(t *testing.T) {
	g := complete(t, 12)
	seen := make([]int32, g.M())
	g.ParallelForEachEdge(func(i int, e Edge) {
		seen[i] = e.U + e.V
	})
	for i, e := range g.Edges() {
		if seen[i] != e.U+e.V {
			t.Fatalf("edge %d not processed correctly", i)
		}
	}
}

// Property: HasEdge agrees with a brute-force adjacency map on random graphs.
func TestPropertyHasEdgeAgainstMap(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		g := randomGraph(r, n, 3*n)
		want := make(map[[2]int32]bool)
		for _, e := range g.Edges() {
			want[[2]int32{e.U, e.V}] = true
		}
		for u := int32(0); u < int32(n); u++ {
			for v := int32(0); v < int32(n); v++ {
				has := g.HasEdge(u, v)
				key := [2]int32{u, v}
				if u > v {
					key = [2]int32{v, u}
				}
				if has != (u != v && want[key]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: degree sums to 2m and Neighbors is symmetric.
func TestPropertyDegreeSymmetry(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(50)
		g := randomGraph(r, n, 4*n)
		sum := 0
		for v := int32(0); v < int32(n); v++ {
			sum += g.Degree(v)
			for _, w := range g.Neighbors(v) {
				if !g.HasEdge(w, v) {
					return false
				}
			}
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle condition |d(u)-d(v)| <= 1
// across every edge, and d is 0 exactly at the source.
func TestPropertyBFSIsMetric(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(60)
		g := randomGraph(r, n, 3*n)
		src := int32(r.Intn(n))
		dist := g.BFS(src)
		if dist[src] != 0 {
			return false
		}
		for _, e := range g.Edges() {
			du, dv := dist[e.U], dist[e.V]
			if (du == Unreachable) != (dv == Unreachable) {
				return false
			}
			if du != Unreachable {
				diff := du - dv
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFSCycle(b *testing.B) {
	bld := NewBuilder(4096)
	for i := 0; i < 4096; i++ {
		bld.AddEdge(int32(i), int32((i+1)%4096))
	}
	g := bld.MustBuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(0)
	}
}

func BenchmarkHasEdge(b *testing.B) {
	r := rng.New(1)
	g := randomGraph(r, 2000, 40000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(int32(i%2000), int32((i*7)%2000))
	}
}

func TestGirthKnownGraphs(t *testing.T) {
	if g := complete(t, 4).Girth(); g != 3 {
		t.Fatalf("K4 girth %d, want 3", g)
	}
	if g := cycle(t, 9).Girth(); g != 9 {
		t.Fatalf("C9 girth %d, want 9", g)
	}
	if g := path(t, 6).Girth(); g != Unreachable {
		t.Fatalf("path girth %d, want -1", g)
	}
	// Petersen graph: girth 5.
	b := NewBuilder(10)
	outer := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	inner := [][2]int32{{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}}
	for _, e := range outer {
		b.AddEdge(e[0], e[1])
	}
	for _, e := range inner {
		b.AddEdge(e[0], e[1])
	}
	for i := int32(0); i < 5; i++ {
		b.AddEdge(i, i+5)
	}
	if g := b.MustBuild().Girth(); g != 5 {
		t.Fatalf("Petersen girth %d, want 5", g)
	}
	// Hypercube Q3: girth 4.
	hb := NewBuilder(8)
	for v := 0; v < 8; v++ {
		for bit := 0; bit < 3; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				hb.AddEdge(int32(v), int32(w))
			}
		}
	}
	if g := hb.MustBuild().Girth(); g != 4 {
		t.Fatalf("Q3 girth %d, want 4", g)
	}
}
