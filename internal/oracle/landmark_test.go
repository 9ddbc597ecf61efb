package oracle

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spanner"
)

func TestLandmarkTableEmptyAndOneVertexGraphs(t *testing.T) {
	// Vertex-free graph: no landmarks, Bytes must still serialize.
	empty := graph.NewBuilder(0).BuildDedup()
	et := buildLandmarkTable(empty, 4, 7)
	if len(et.roots) != 0 {
		t.Fatalf("empty graph got %d landmarks, want 0", len(et.roots))
	}
	// Header only: zero roots, zero vertices.
	if b := et.Bytes(); len(b) != 8 {
		t.Fatalf("empty-graph Bytes has %d bytes, want 8 (header only)", len(b))
	}

	// One-vertex graph: the single vertex is the hub landmark.
	one := graph.NewBuilder(1).BuildDedup()
	ot := buildLandmarkTable(one, 4, 7)
	if len(ot.roots) != 1 || ot.roots[0] != 0 {
		t.Fatalf("one-vertex graph landmarks = %v, want [0]", ot.roots)
	}
	if d := ot.dist.At(0, 0); d != 0 {
		t.Fatalf("one-vertex self distance = %d, want 0", d)
	}
	// Header + one root + one distance cell.
	if b := ot.Bytes(); len(b) != 8+4+4 {
		t.Fatalf("one-vertex Bytes has %d bytes, want 16", len(b))
	}
	if ub := ot.upperBound(0, 0); ub != 0 {
		t.Fatalf("one-vertex upperBound(0,0) = %d, want 0", ub)
	}
}

func TestLandmarkUpperBoundWhenNoLandmarkReachesBoth(t *testing.T) {
	// Two components: a triangle {0,1,2} (high degree, holds the hub) and
	// an edge {3,4}. With k=1 the sole landmark sits in the triangle, so
	// it reaches neither endpoint of a pair inside {3,4}, and no landmark
	// reaches both endpoints of a cross-component pair.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	h := b.BuildDedup()
	lt := buildLandmarkTable(h, 1, 9)
	// Hub selection is highest degree with lowest id on ties: vertex 0.
	if len(lt.roots) != 1 || lt.roots[0] != 0 {
		t.Fatalf("landmarks = %v, want [0]", lt.roots)
	}
	if ub := lt.upperBound(3, 4); ub != graph.Unreachable {
		t.Fatalf("upperBound(3,4) = %d, want Unreachable (landmark reaches neither)", ub)
	}
	if ub := lt.upperBound(0, 3); ub != graph.Unreachable {
		t.Fatalf("upperBound(0,3) = %d, want Unreachable (landmark reaches one side)", ub)
	}
	if ub := lt.upperBound(1, 2); ub != 2 {
		t.Fatalf("upperBound(1,2) = %d, want 2 (through landmark 0)", ub)
	}
}

// The landmark table must not depend on which BFS kernel filled it: the
// scalar per-source kernel and the bit-parallel kernel are byte-identical
// through Bytes().
func TestLandmarkTableKernelByteIdentity(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 77)
	h := dc.Graph()
	lt := buildLandmarkTable(h, 9, 41)

	scalar := &landmarkTable{roots: lt.roots, dist: h.ParallelBFSFrom(lt.roots, 1)}
	bitp := &landmarkTable{roots: lt.roots, dist: h.BitParallelBFSFrom(lt.roots, 0)}
	if !bytes.Equal(scalar.Bytes(), bitp.Bytes()) {
		t.Fatal("scalar-built and bit-parallel-built landmark tables serialize differently")
	}
	if !bytes.Equal(lt.Bytes(), scalar.Bytes()) {
		t.Fatal("buildLandmarkTable output differs from the scalar kernel's table")
	}
}

// The row repair against a fresh BFS: random deltas, each mixing added
// and removed edges, mutate a graph, every vertex's row is repaired from
// each delta, and after every step each repaired row must equal
// g.BFS(root). The streams must reach the repair's hard cases: a
// deletion that cuts part of a row off, an insertion that reconnects it,
// a removed edge at the root, and a lost region more than one level
// deep.
func TestRowRepairMatchesBFS(t *testing.T) {
	var cuts, rejoins, atRoot, deep int
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		steps int
	}{
		{"path", gen.Path(40), 60},
		{"cycle", gen.Cycle(40), 60},
		{"er-sparse", gen.ErdosRenyi(50, 0.05, rng.New(3)), 60},
		{"er-dense", gen.ErdosRenyi(40, 0.3, rng.New(4)), 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dg := graph.NewDynGraph(tc.g)
			n := tc.g.N()
			rows := make([][]int32, n) // every vertex is a root
			for v := range rows {
				rows[v] = dg.BFS(int32(v))
			}
			var rr rowRepair
			r := rng.New(uint64(n))
			for step := 0; step < tc.steps; step++ {
				var delta spanner.Delta
				edges := dg.Edges()
				for _, i := range r.Sample(len(edges), min(len(edges), 1+r.Intn(3))) {
					delta.Removed = append(delta.Removed, edges[i])
				}
				for k := 1 + r.Intn(3); len(delta.Added) < k; {
					e := graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))}.Normalize()
					if e.U != e.V && !dg.HasEdge(e.U, e.V) && !slices.Contains(delta.Added, e) {
						delta.Added = append(delta.Added, e)
					}
				}
				for _, e := range delta.Removed {
					dg.Delete(e.U, e.V)
				}
				for _, e := range delta.Added {
					dg.Insert(e.U, e.V)
				}
				for root, d := range rows {
					old := slices.Clone(d)
					changed := rr.row(d, &dg.Graph, delta)
					want := dg.BFS(int32(root))
					if !slices.Equal(d, want) {
						t.Fatalf("step %d root %d: repaired row %v, BFS %v", step, root, d, want)
					}
					diff := 0
					for v := range d {
						if d[v] != old[v] {
							diff++
						}
						switch {
						case old[v] != graph.Unreachable && d[v] == graph.Unreachable:
							cuts++
						case old[v] == graph.Unreachable && d[v] != graph.Unreachable:
							rejoins++
						}
					}
					if changed != diff {
						t.Fatalf("step %d root %d: repair reports %d changed entries, %d changed", step, root, changed, diff)
					}
					for _, e := range delta.Removed {
						if e.U == int32(root) || e.V == int32(root) {
							atRoot++
						}
					}
					if len(rr.lost) > 0 && rr.lost[len(rr.lost)-1].d > rr.lost[0].d {
						deep++
					}
				}
			}
		})
	}
	t.Logf("%d cut entries, %d rejoined entries, %d removed edges at a root, %d multi-level lost regions",
		cuts, rejoins, atRoot, deep)
	if cuts == 0 || rejoins == 0 || atRoot == 0 || deep == 0 {
		t.Fatal("the streams missed a case")
	}
}

// The hub kept from the delta: a refresh in which the hub's own degree
// falls must rescan and settle ties on the lowest id, and one in which an
// added edge's endpoint ties the hub from below must move it; either way
// the roots must equal selectLandmarks on the new graph and the table a
// fresh build's.
func TestLandmarkRefreshKeepsHub(t *testing.T) {
	// Vertex 7 is the hub (degree 4); vertex 3 has degree 3, every other
	// vertex less.
	b := graph.NewBuilder(12)
	for _, e := range [][2]int32{{7, 0}, {7, 1}, {7, 2}, {7, 11}, {3, 8}, {3, 9}, {3, 10}, {0, 8}, {11, 4}, {4, 5}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	dg := graph.NewDynGraph(b.BuildDedup())
	const k, seed = 5, 29
	lb := newLandmarkBackend(&dg.Graph, Options{Landmarks: k, Seed: seed}, 1, nil)
	if lb.hub != 7 {
		t.Fatalf("hub %d, want 7", lb.hub)
	}
	step := func(stage string, want int32, delta spanner.Delta) {
		t.Helper()
		for _, e := range delta.Removed {
			dg.Delete(e.U, e.V)
		}
		for _, e := range delta.Added {
			dg.Insert(e.U, e.V)
		}
		lb.refresh(&dg.Graph, delta)
		if lb.hub != want {
			t.Fatalf("%s: hub %d, want %d", stage, lb.hub, want)
		}
		if sel := selectLandmarks(&dg.Graph, k, seed); !slices.Equal(lb.lm.roots, sel) {
			t.Fatalf("%s: roots %v, selectLandmarks %v", stage, lb.lm.roots, sel)
		}
		if !bytes.Equal(lb.lm.Bytes(), buildLandmarkTable(&dg.Graph, k, seed).Bytes()) {
			t.Fatalf("%s: refreshed table differs from a fresh build", stage)
		}
	}
	// The hub loses an edge and ties vertex 3, the lower id.
	step("rescan", 3, spanner.Delta{Removed: []graph.Edge{{U: 7, V: 11}}})
	// Vertex 2 gains two edges and ties the hub from a lower id.
	step("added tie", 2, spanner.Delta{Added: []graph.Edge{{U: 2, V: 6}, {U: 2, V: 10}}})
}
