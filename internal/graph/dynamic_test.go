package graph

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

func dynTestBase() *Graph {
	// A 12-vertex graph with a mix of degrees: an 8-cycle with two chords
	// plus a 4-vertex tail.
	b := NewBuilder(12)
	for v := int32(0); v < 8; v++ {
		b.AddEdge(v, (v+1)%8)
	}
	b.AddEdge(0, 4)
	b.AddEdge(1, 5)
	b.AddEdge(7, 8)
	b.AddEdge(8, 9)
	b.AddEdge(9, 10)
	b.AddEdge(10, 11)
	return b.MustBuild()
}

func TestDynGraphMutationsAgainstReference(t *testing.T) {
	base := dynTestBase()
	d := NewDynGraph(base)
	ref := make(map[Edge]bool)
	for _, e := range base.Edges() {
		ref[e] = true
	}
	r := rng.New(42)
	wantSeq := uint64(0)
	for step := 0; step < 2000; step++ {
		u, v := int32(r.Intn(12)), int32(r.Intn(12))
		if u == v {
			continue
		}
		e := Edge{U: u, V: v}.Normalize()
		if r.Bernoulli(0.5) {
			applied, err := d.Insert(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if applied != !ref[e] {
				t.Fatalf("step %d: Insert%v applied=%v with present=%v", step, e, applied, ref[e])
			}
			if applied {
				wantSeq++
				ref[e] = true
			}
		} else {
			applied, err := d.Delete(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if applied != ref[e] {
				t.Fatalf("step %d: Delete%v applied=%v with present=%v", step, e, applied, ref[e])
			}
			if applied {
				wantSeq++
				delete(ref, e)
			}
		}
	}
	if d.Seq() != wantSeq {
		t.Fatalf("Seq = %d, want %d", d.Seq(), wantSeq)
	}
	if d.M() != len(ref) {
		t.Fatalf("M = %d, reference has %d edges", d.M(), len(ref))
	}
	for u := int32(0); u < 12; u++ {
		for v := int32(0); v < 12; v++ {
			if d.HasEdge(u, v) != ref[Edge{U: u, V: v}.Normalize()] && u != v {
				t.Fatalf("HasEdge(%d,%d) = %v disagrees with reference", u, v, d.HasEdge(u, v))
			}
		}
	}
}

// Snapshot must be canonical: equal edge sets snapshot identically
// regardless of mutation history, and the snapshot round-trips.
func TestDynGraphSnapshotCanonical(t *testing.T) {
	base := dynTestBase()
	d := NewDynGraph(base)
	if _, err := d.Insert(3, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(3, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if snap.N() != base.N() || snap.M() != base.M() {
		t.Fatalf("round-trip snapshot is %v, want %v", snap, base)
	}
	be, se := base.Edges(), snap.Edges()
	for i := range be {
		if be[i] != se[i] {
			t.Fatalf("edge %d: %v != %v after a no-op mutation cycle", i, se[i], be[i])
		}
	}
	for v := int32(0); v < int32(snap.N()); v++ {
		bn, sn := base.Neighbors(v), snap.Neighbors(v)
		if len(bn) != len(sn) {
			t.Fatalf("vertex %d: degree %d != %d", v, len(sn), len(bn))
		}
		for i := range bn {
			if bn[i] != sn[i] {
				t.Fatalf("vertex %d adjacency differs at %d", v, i)
			}
		}
	}
	// Mutating the DynGraph must not alias the snapshot or the base.
	if _, err := d.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if !snap.HasEdge(0, 1) || !base.HasEdge(0, 1) {
		t.Fatal("mutation after Snapshot leaked into immutable graphs")
	}
}

func TestDynGraphRejectsBadEndpoints(t *testing.T) {
	d := NewDynGraph(dynTestBase())
	for _, pair := range [][2]int32{{-1, 0}, {0, 12}, {5, 5}} {
		if _, err := d.Insert(pair[0], pair[1]); err == nil {
			t.Errorf("Insert(%d,%d) accepted", pair[0], pair[1])
		}
		if _, err := d.Delete(pair[0], pair[1]); err == nil {
			t.Errorf("Delete(%d,%d) accepted", pair[0], pair[1])
		}
	}
	if d.Seq() != 0 {
		t.Fatalf("rejected updates advanced Seq to %d", d.Seq())
	}
}

// Snapshot is a fixed number of linear copies — its allocation count does
// not grow with n — and every adjacency list it builds comes out strictly
// increasing without a per-vertex sort.
func TestSnapshotAllocsIndependentOfN(t *testing.T) {
	for _, n := range []int{256, 2048} {
		d := NewDynGraph(randomGraph(rng.New(uint64(n)), n, 8*n))
		snap := d.Snapshot()
		for v := int32(0); v < int32(n); v++ {
			nbrs := snap.Neighbors(v)
			for i := 1; i < len(nbrs); i++ {
				if nbrs[i-1] >= nbrs[i] {
					t.Fatalf("n=%d: vertex %d adjacency not strictly increasing: %v", n, v, nbrs)
				}
			}
		}
		if a := testing.AllocsPerRun(20, func() { d.Snapshot() }); a > 8 {
			t.Errorf("n=%d: Snapshot allocates %.0f times, want at most 8", n, a)
		}
	}
}

// A DynGraph's own graph is the live graph its owner serves: after every
// step of a random insert/delete stream it must read exactly like its
// Snapshot and like a FromEdges rebuild of a reference edge set, through
// every accessor and the BFS kernels, and an Edges list taken before a
// mutation must not change under it. The dense base runs
// MultiSourceBFSSweep's bit-parallel kernel throughout, the sparse one
// starts on the scalar kernel; the streams grow lists past their carved
// capacity and shrink them.
func TestLiveGraphMatchesSnapshotAndRebuild(t *testing.T) {
	for name, base := range map[string]*Graph{
		"sparse": randomGraph(rng.New(5), 40, 60),
		"dense":  randomGraph(rng.New(6), 64, 360),
	} {
		n := base.N()
		d := NewDynGraph(base)
		live := &d.Graph
		ref := make(map[Edge]bool)
		for _, e := range base.Edges() {
			ref[e] = true
		}
		r := rng.New(11)
		srcs := []int32{0, 1, int32(n / 2), int32(n - 1)}
		sc := NewBFSScratch(n)
		parent := make([]int32, n)
		for step := 0; step < 400; step++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v {
				continue
			}
			held := live.Edges()
			heldCopy := slices.Clone(held)
			e := Edge{U: u, V: v}.Normalize()
			if r.Bernoulli(0.5) {
				if _, err := d.Insert(u, v); err != nil {
					t.Fatal(err)
				}
				ref[e] = true
			} else {
				if _, err := d.Delete(u, v); err != nil {
					t.Fatal(err)
				}
				delete(ref, e)
			}
			if !slices.Equal(held, heldCopy) {
				t.Fatalf("%s step %d: an Edges list taken before the update changed under it", name, step)
			}
			var refEdges []Edge
			for e := range ref {
				refEdges = append(refEdges, e)
			}
			rebuilt := FromEdges(n, refEdges)
			snap := d.Snapshot()
			for _, want := range []*Graph{snap, rebuilt} {
				if live.N() != want.N() || live.M() != want.M() {
					t.Fatalf("%s step %d: live graph %v, want %v", name, step, live, want)
				}
				if !slices.Equal(live.Edges(), want.Edges()) {
					t.Fatalf("%s step %d: live Edges differ from %v's", name, step, want)
				}
				for x := int32(0); x < int32(n); x++ {
					if live.Degree(x) != want.Degree(x) || !slices.Equal(live.Neighbors(x), want.Neighbors(x)) {
						t.Fatalf("%s step %d: vertex %d lists %v, want %v", name, step, x, live.Neighbors(x), want.Neighbors(x))
					}
					for y := int32(0); y < int32(n); y++ {
						if live.HasEdge(x, y) != want.HasEdge(x, y) {
							t.Fatalf("%s step %d: HasEdge(%d,%d) = %v", name, step, x, y, live.HasEdge(x, y))
						}
					}
				}
			}
			want := rebuilt.MultiSourceBFSFrom(srcs, 1)
			got := make([][]int32, len(srcs))
			live.MultiSourceBFSSweep(srcs, 2, func(i int, _ int32, dist []int32) {
				got[i] = slices.Clone(dist)
			})
			for i, src := range srcs {
				if !slices.Equal(got[i], want.Row(i)) {
					t.Fatalf("%s step %d: live sweep row from %d differs from the rebuild's", name, step, src)
				}
				for y, dy := range got[i] {
					p := sc.PathWithin(live, src, int32(y), -1, parent)
					if hops := int32(len(p)) - 1; (p == nil) != (dy == Unreachable) || (p != nil && hops != dy) {
						t.Fatalf("%s step %d: PathWithin(%d,%d) has %d hops, distance %d", name, step, src, y, hops, dy)
					}
				}
			}
		}
	}
}

// NewDynGraph copies: mutating the DynGraph, including growing lists past
// their capacity and emptying them, leaves the base graph's adjacency and
// edge list as they were.
func TestNewDynGraphLeavesBaseUnchanged(t *testing.T) {
	base := randomGraph(rng.New(9), 30, 90)
	edges := slices.Clone(base.Edges())
	lists := make([][]int32, base.N())
	for v := range lists {
		lists[v] = slices.Clone(base.Neighbors(int32(v)))
	}
	d := NewDynGraph(base)
	for _, e := range edges {
		if _, err := d.Delete(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(10)
	for i := 0; i < 300; i++ {
		u, v := int32(r.Intn(30)), int32(r.Intn(30))
		if u == v {
			continue
		}
		if _, err := d.Insert(u, v); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(base.Edges(), edges) {
		t.Fatal("mutating a DynGraph changed its base's edge list")
	}
	for v := range lists {
		if !slices.Equal(base.Neighbors(int32(v)), lists[v]) {
			t.Fatalf("mutating a DynGraph changed its base's list at %d: %v, want %v", v, base.Neighbors(int32(v)), lists[v])
		}
	}
}
