package oracle

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// TestSearchStampWrap runs one search at generation 1 to leave stale
// marks, then moves the scratch just below the reset point, so the next
// search wraps back to generation 1 and would take those marks for its
// own had the reset not cleared them.
func TestSearchStampWrap(t *testing.T) {
	g := gen.Cycle(24)
	n := int32(g.N())
	sc := newBiScratch(g.N())
	const u0, v0 = 0, 12
	if d := sc.distance(g, u0, v0); d != 12 || sc.gen != 1 {
		t.Fatalf("first search: d=%d at gen %d, want 12 at gen 1", d, sc.gen)
	}
	sc.gen = stampReset - 1
	ref := g.BFS(u0)
	searches := uint32(0)
	for i := int32(0); i < n; i++ {
		v := (v0 + i) % n
		if v == u0 {
			continue
		}
		searches++
		if d := sc.distance(g, u0, v); d != ref[v] {
			t.Fatalf("search %d across the stamp reset: d(%d,%d) = %d, BFS says %d (gen %d)",
				searches, u0, v, d, ref[v], sc.gen)
		}
	}
	if sc.gen != searches {
		t.Fatalf("gen = %d after %d searches, want the first to have reset it to 1", sc.gen, searches)
	}
}

// TestSearchExactOnIncrementalSpanner sweeps uniform pairs through one
// scratch on churn_rw's input shape at n=2048: the maintained spanner H,
// where most pairs meet within three levels, and its base graph G, which
// the stretch sampler searches. Every answer must equal a plain BFS.
func TestSearchExactOnIncrementalSpanner(t *testing.T) {
	g := gen.MustRandomRegular(2048, 32, rng.New(5))
	h := spanner.NewIncremental(g, spanner.IncrementalOptions{Seed: 5}).H()
	sc := newBiScratch(g.N())
	r := rng.New(6)
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{{"H", h}, {"G", g}} {
		for i := 0; i < 48; i++ {
			u := int32(r.Intn(g.N()))
			ref := in.g.BFS(u)
			for j := 0; j < 128; j++ {
				v := int32(r.Intn(g.N()))
				if u == v {
					continue
				}
				if d := sc.distance(in.g, u, v); d != ref[v] {
					t.Fatalf("%s: d(%d,%d) = %d, BFS says %d", in.name, u, v, d, ref[v])
				}
			}
		}
	}
}
