package oracle

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// These tests pin the two bidirectional-search behaviors the differential
// harness was built to interrogate (see ISSUE: the stopping rule when the
// frontiers touch exactly at the search bound, and the "unreachable
// within bound" sentinel on disconnected graphs). The sweep found no
// divergence — the stopping rule `depthU+depthV >= best-1` is sound — and
// these seed-pinned sweeps keep it that way.

// exactDistContract sweeps every pair of g through an oracle and asserts
// the bounded-search contract against a plain BFS reference: exact
// answers must equal the true spanner distance; inexact answers may only
// occur past maxDist and must serve exactly the landmark bound.
func exactDistContract(t *testing.T, g *graph.Graph, maxDist int32, seed uint64) {
	t.Helper()
	o, err := NewFromGraphs(g, g, 3, Options{
		Landmarks: 3, Seed: seed, SampleEvery: -1, MaxDist: int(maxDist),
	})
	if err != nil {
		t.Fatalf("NewFromGraphs: %v", err)
	}
	n := int32(g.N())
	for u := int32(0); u < n; u++ {
		ref := g.BFS(u)
		for v := int32(0); v < n; v++ {
			a, err := o.Dist(u, v)
			if err != nil {
				t.Fatalf("Dist(%d,%d): %v", u, v, err)
			}
			if a.Exact {
				if a.Dist != ref[v] {
					t.Fatalf("Dist(%d,%d) = %d exact, BFS says %d (maxDist=%d seed=%d)",
						u, v, a.Dist, ref[v], maxDist, seed)
				}
				continue
			}
			if maxDist < 0 {
				t.Fatalf("Dist(%d,%d) inexact on an unbounded oracle (seed=%d)", u, v, seed)
			}
			if ref[v] != graph.Unreachable && ref[v] <= maxDist {
				t.Fatalf("Dist(%d,%d) fell back to the bound but true distance %d <= maxDist %d (seed=%d)",
					u, v, ref[v], maxDist, seed)
			}
			if a.Dist != a.Bound {
				t.Fatalf("Dist(%d,%d) inexact answer %d != landmark bound %d (seed=%d)",
					u, v, a.Dist, a.Bound, seed)
			}
			if a.Bound != graph.Unreachable && ref[v] != graph.Unreachable && a.Bound < ref[v] {
				t.Fatalf("Dist(%d,%d) landmark bound %d below true distance %d (seed=%d)",
					u, v, a.Bound, ref[v], seed)
			}
		}
	}
}

// TestBoundedSearchMeetingAtBound drives the frontiers to touch exactly
// at the depth budget: on a cycle, antipodal pairs sit at every distance
// up to n/2, so a MaxDist equal to (and one past) specific distances
// exercises the `depthU+depthV >= best-1` cutoff on both sides of the
// boundary. Structured graphs, no randomness — any stopping-rule
// off-by-one fails deterministically.
func TestBoundedSearchMeetingAtBound(t *testing.T) {
	for _, m := range []int32{1, 2, 3, 5, 6, 7, 11, 12} {
		exactDistContract(t, gen.Cycle(24), m, 9)
		exactDistContract(t, gen.Path(20), m, 9)
	}
	// Odd-distance meeting points (frontier levels of unequal depth).
	exactDistContract(t, gen.Cycle(25), 6, 9)
}

// TestDisconnectedSentinelPinnedSeeds sweeps sub-threshold Erdős–Rényi
// graphs — the family whose isolated vertices and small components make
// "unreachable within bound" ambiguous — under both an unbounded and a
// tightly bounded oracle. The seeds are pinned: each produced a
// disconnected graph when this test was written, and the sweep asserts
// the full contract on every pair, including that unbounded disconnected
// answers are exact Unreachable (the sentinel never downgrades to an
// inexact landmark fallback when the frontier genuinely empties).
func TestDisconnectedSentinelPinnedSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 4, 7, 1002} {
		g := gen.ErdosRenyi(48, 1.2/48.0, rng.New(seed))
		if g.Connected() {
			t.Fatalf("seed %d no longer yields a disconnected graph; re-pin the seed", seed)
		}
		exactDistContract(t, g, -1, seed)
		exactDistContract(t, g, 3, seed)
	}
}
