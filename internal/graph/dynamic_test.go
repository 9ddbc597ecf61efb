package graph

import (
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
