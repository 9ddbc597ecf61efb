package oracle

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// The backend refresh contract, end to end: a NewDynamic oracle driven
// through a random update sequence must answer every pair exactly like
// an oracle freshly built on the current spanner — for every backend.
func TestDynamicMatchesFreshOracle(t *testing.T) {
	base := gen.ErdosRenyi(48, 0.08, rng.New(3))
	for _, name := range BackendNames() {
		opts := Options{Backend: name, Seed: 42, SampleEvery: -1}
		d, err := NewDynamic(base, DynamicOptions{
			Spanner: spanner.IncrementalOptions{Seed: 0xfeed},
			Oracle:  opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(777)
		n := int32(base.N())
		for step := 0; step < 120; step++ {
			u, v := int32(r.Intn(int(n))), int32(r.Intn(int(n)))
			if u == v {
				continue
			}
			if _, err := d.Update(u, v, r.Bernoulli(0.5)); err != nil {
				t.Fatal(err)
			}
			if step%10 != 9 {
				continue
			}
			info := d.Snapshot(true)
			if !info.Verified || !info.Consistent {
				t.Fatalf("%s step %d: snapshot verify failed: %+v", name, step, info)
			}
			s := d.inc.Spanner()
			fresh, err := NewFromGraphs(s.Base, s.H, spanner.IncrementalAlpha, opts)
			if err != nil {
				t.Fatal(err)
			}
			for a := int32(0); a < n; a++ {
				for b := a + 1; b < n; b++ {
					got, err1 := d.Dist(a, b)
					want, err2 := fresh.Dist(a, b)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if got != want {
						t.Fatalf("%s step %d pair (%d,%d): refreshed answer %+v, fresh build %+v",
							name, step, a, b, got, want)
					}
				}
			}
		}
	}
}

// Exact-backend refresh: the patched table must match a fresh sweep
// bit for bit through insertions, deletions (both the affected-row
// rewrite and the >n/2 full-resweep fallback), and disconnect/reconnect
// transitions through graph.Unreachable.
func TestExactRefreshPatchesTable(t *testing.T) {
	n := 40
	cur := gen.ErdosRenyi(n, 0.09, rng.New(5))
	b := newExactBackend(cur, 2, nil)

	check := func(stage string) {
		t.Helper()
		want := newExactBackend(b.h, 2, nil)
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				if got, exp := b.tri.At(u, v), want.tri.At(u, v); got != exp {
					t.Fatalf("%s: tri(%d,%d) = %d, fresh sweep has %d", stage, u, v, got, exp)
				}
			}
		}
	}

	mutate := func(stage string, toggle []graph.Edge) {
		t.Helper()
		have := make(map[graph.Edge]bool, b.h.M())
		for _, e := range b.h.Edges() {
			have[e] = true
		}
		for _, e := range toggle {
			e = e.Normalize()
			have[e] = !have[e]
		}
		var edges []graph.Edge
		for e, in := range have {
			if in {
				edges = append(edges, e)
			}
		}
		b.refresh(graph.FromEdges(n, edges))
		check(stage)
	}

	// Pure insertions exercise the min-rule patch alone.
	mutate("insert", []graph.Edge{{U: 0, V: 39}, {U: 3, V: 30}, {U: 11, V: 25}})
	// A small deletion exercises the affected-row rewrite.
	some := b.h.Edges()[:2]
	mutate("delete", append([]graph.Edge(nil), some...))
	// Mixed add/remove in one refresh.
	mutate("mixed", []graph.Edge{{U: 0, V: 39}, {U: 1, V: 38}, b.h.Edges()[4]})
	// Delete most edges at once: nearly every row is affected, driving
	// the >n/2 full-resweep fallback and plenty of Unreachable pairs.
	bulk := append([]graph.Edge(nil), b.h.Edges()[:b.h.M()*3/4]...)
	mutate("bulk-delete", bulk)
	// Reconnect.
	mutate("reinsert", bulk)
}

// Landmark refresh must rebuild the table to what a fresh build on the
// new spanner produces (byte-identical, same count and seed) and answer
// on the new spanner.
func TestLandmarkRefreshMatchesFreshBuild(t *testing.T) {
	h0 := gen.ErdosRenyi(64, 0.07, rng.New(9))
	opts := Options{Seed: 17, Landmarks: 8}
	b := newLandmarkBackend(h0, opts, 2, nil)
	h1 := graph.FromEdges(64, append(h0.Edges(), graph.Edge{U: 0, V: 63}))
	b.refresh(h1)
	fresh := newLandmarkBackend(h1, opts, 2, nil)
	got, want := b.lm.Bytes(), fresh.lm.Bytes()
	if string(got) != string(want) {
		t.Fatal("refreshed landmark table differs from a fresh build")
	}
	for v := int32(1); v < 64; v++ {
		a, _ := b.Dist(0, v)
		f, _ := fresh.Dist(0, v)
		if a != f {
			t.Fatalf("refreshed Dist(0,%d) = %+v, fresh build says %+v", v, a, f)
		}
	}
}

// Sparse-hub refresh rebuilds hubs and bunches in place to exactly the
// structures a fresh build would hold.
func TestSparseRefreshMatchesFreshBuild(t *testing.T) {
	h0 := gen.ErdosRenyi(56, 0.08, rng.New(13))
	opts := Options{Seed: 23, SparseHubs: 7}
	b := newSparseBackend(h0, opts, 2, nil)
	edges := h0.Edges()
	h1 := graph.FromEdges(56, append(edges[:len(edges)-3:len(edges)-3], graph.Edge{U: 2, V: 55}))
	b.refresh(h1)
	fresh := newSparseBackend(h1, opts, 2, nil)
	if string(b.hubs.Bytes()) != string(fresh.hubs.Bytes()) {
		t.Fatal("refreshed hub table differs from a fresh build")
	}
	eq32 := func(a, c []int32) bool {
		if len(a) != len(c) {
			return false
		}
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}
	if !eq32(b.bunchOff, fresh.bunchOff) || !eq32(b.bunchW, fresh.bunchW) || !eq32(b.bunchD, fresh.bunchD) {
		t.Fatal("refreshed bunch CSR differs from a fresh build")
	}
}

// No-op updates must leave the engine untouched and out-of-range ones
// must error without mutating anything.
func TestDynamicNoOpAndInvalidUpdates(t *testing.T) {
	base := gen.Cycle(16)
	d, err := NewDynamic(base, DynamicOptions{Oracle: Options{Backend: BackendExactCached}})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Snapshot(false)
	res, err := d.Update(0, 1, true) // edge already present
	if err != nil || res.Applied {
		t.Fatalf("inserting a present edge: %+v err=%v", res, err)
	}
	if _, err := d.Update(0, 16, true); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	after := d.Snapshot(false)
	if before != after {
		t.Fatalf("no-op updates changed the snapshot: %+v -> %+v", before, after)
	}
	if after.Seq != 0 {
		t.Fatalf("Seq advanced to %d on no-ops", after.Seq)
	}
}
