package spanner

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// edgesEqual compares two canonical edge lists.
func edgesEqual(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareEdges orders edges lexicographically by (U, V).
func compareEdges(a, b graph.Edge) int {
	if a.U != b.U {
		return int(a.U - b.U)
	}
	return int(a.V - b.V)
}

// diffEdgeLists splits two canonical edge lists into the edges only in
// cur (added) and only in old (removed), both in canonical order.
func diffEdgeLists(old, cur []graph.Edge) (added, removed []graph.Edge) {
	in := make(map[graph.Edge]bool, len(old))
	for _, e := range old {
		in[e] = true
	}
	for _, e := range cur {
		if in[e] {
			delete(in, e)
		} else {
			added = append(added, e)
		}
	}
	for _, e := range old {
		if in[e] {
			removed = append(removed, e)
		}
	}
	return added, removed
}

// The keystone property: after every update, the maintained spanner is
// identical — edge for edge — to the one built from scratch on the
// current edge set, and it is a valid 3-spanner of that edge set. Every
// update reports its net H-edge delta, which must equal the diff of the
// spanner before and after it. The stream moves endpoint clusters, so
// the re-evaluation of the edges at their neighbors is exercised too,
// and so are deltas of several edges.
func TestIncrementalEqualsRebuilt(t *testing.T) {
	moves, multi := 0, 0
	for name, base := range map[string]*graph.Graph{
		"er-sparse": gen.ErdosRenyi(40, 0.06, rng.New(7)),
		"er-dense":  gen.ErdosRenyi(30, 0.25, rng.New(8)),
		"cycle":     gen.Cycle(32),
		"clique":    gen.Clique(14),
	} {
		const seed = 0xd1_5c0_c0de
		inc := NewIncremental(base, IncrementalOptions{Seed: seed})
		r := rng.New(99)
		n := int32(base.N())
		for step := 0; step < 300; step++ {
			u, v := int32(r.Intn(int(n))), int32(r.Intn(int(n)))
			if u == v {
				continue
			}
			var (
				delta Delta
				err   error
			)
			cu, cv := inc.cluster[u], inc.cluster[v]
			before := inc.Edges()
			if r.Bernoulli(0.5) {
				_, delta, err = inc.Insert(u, v)
			} else {
				_, delta, err = inc.Delete(u, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			added, removed := diffEdgeLists(before, inc.Edges())
			slices.SortFunc(delta.Added, compareEdges)
			slices.SortFunc(delta.Removed, compareEdges)
			if !edgesEqual(delta.Added, added) || !edgesEqual(delta.Removed, removed) {
				t.Fatalf("%s step %d: update (%d,%d) reported delta +%v -%v, the spanner moved +%v -%v",
					name, step, u, v, delta.Added, delta.Removed, added, removed)
			}
			if len(added)+len(removed) > 1 {
				multi++
			}
			if inc.cluster[u] != cu || inc.cluster[v] != cv {
				moves++
			}
			snap := inc.Graph().Snapshot()
			fresh := NewIncremental(snap, IncrementalOptions{Seed: seed})
			if !edgesEqual(inc.Edges(), fresh.Edges()) {
				t.Fatalf("%s step %d: incremental spanner (%d edges) != rebuilt (%d edges)",
					name, step, inc.HM(), fresh.HM())
			}
			s := inc.Spanner()
			if err := s.Validate(); err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			if rep := VerifyEdgeStretch(snap, s.H, IncrementalAlpha); rep.Violations != 0 {
				t.Fatalf("%s step %d: %d edges over stretch %d (max %.1f)",
					name, step, rep.Violations, IncrementalAlpha, rep.MaxStretch)
			}
		}
	}
	if moves == 0 {
		t.Fatal("no update moved a cluster: the neighbor re-evaluation went untested")
	}
	if multi == 0 {
		t.Fatal("no update moved more than one spanner edge: multi-edge deltas went untested")
	}
}

// No-op updates (inserting a present edge, deleting an absent one) must
// not change the spanner or advance the sequence counter.
func TestIncrementalNoOpUpdates(t *testing.T) {
	base := gen.Cycle(20)
	inc := NewIncremental(base, IncrementalOptions{Seed: 3})
	before := inc.Edges()
	seq := inc.Seq()
	if applied, _, err := inc.Insert(0, 1); err != nil || applied {
		t.Fatalf("inserting a present edge: applied=%v err=%v", applied, err)
	}
	if applied, _, err := inc.Delete(0, 5); err != nil || applied {
		t.Fatalf("deleting an absent edge: applied=%v err=%v", applied, err)
	}
	if _, _, err := inc.Insert(0, 20); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if inc.Seq() != seq || !edgesEqual(inc.Edges(), before) {
		t.Fatal("no-op updates mutated the maintained state")
	}
}

// Disconnecting and reconnecting a component round-trips to the exact
// original spanner — deletions must remove every spanner edge they
// orphan.
func TestIncrementalDeleteReinsertRoundTrip(t *testing.T) {
	base := gen.ErdosRenyi(30, 0.15, rng.New(21))
	inc := NewIncremental(base, IncrementalOptions{Seed: 77})
	want := inc.Edges()
	edges := append([]graph.Edge(nil), base.Edges()...)
	for _, e := range edges {
		if _, _, err := inc.Delete(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if inc.HM() != 0 || inc.Graph().M() != 0 {
		t.Fatalf("after deleting every edge: hm=%d m=%d", inc.HM(), inc.Graph().M())
	}
	for i := len(edges) - 1; i >= 0; i-- {
		if _, _, err := inc.Insert(edges[i].U, edges[i].V); err != nil {
			t.Fatal(err)
		}
	}
	if !edgesEqual(inc.Edges(), want) {
		t.Fatal("delete-all/re-insert-all did not restore the original spanner")
	}
}

// incrementalRegular builds the maintained spanner over a random
// 8-regular graph on n vertices.
func incrementalRegular(t *testing.T, n int) (*Incremental, graph.Edge) {
	t.Helper()
	g, err := gen.RandomRegular(n, 8, rng.New(uint64(n)))
	if err != nil {
		t.Fatal(err)
	}
	return NewIncremental(g, IncrementalOptions{Seed: 5}), g.Edges()[n/2]
}

// Materializing the spanner after an update is two linear snapshots of
// adjacency the maintenance already keeps, so its allocation count does
// not grow with n.
func TestIncrementalSpannerAllocsIndependentOfN(t *testing.T) {
	for _, n := range []int{256, 2048} {
		inc, e := incrementalRegular(t, n)
		if _, _, err := inc.Delete(e.U, e.V); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() { inc.Spanner() }); a > 16 {
			t.Errorf("n=%d: Spanner allocates %.0f times, want at most 16", n, a)
		}
	}
}

// Repair edits H in place: deleting and re-inserting one edge allocates
// next to nothing once the adjacency lists have their capacity.
func TestIncrementalTogglePairAllocs(t *testing.T) {
	for _, n := range []int{256, 2048} {
		inc, e := incrementalRegular(t, n)
		want := inc.Edges()
		toggle := func() {
			if _, _, err := inc.Delete(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			if _, _, err := inc.Insert(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(50, toggle); a > 4 {
			t.Errorf("n=%d: a Delete+Insert pair allocates %.0f times, want at most 4", n, a)
		}
		if !edgesEqual(inc.Edges(), want) {
			t.Errorf("n=%d: toggling %v changed the spanner", n, e)
		}
	}
}
