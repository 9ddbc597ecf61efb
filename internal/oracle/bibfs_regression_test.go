package oracle

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// These tests pin the two bidirectional-search behaviors the differential
// harness was built to interrogate: the stopping rule when the frontiers
// meet, and the Unreachable sentinel on disconnected graphs. The search
// returns at the first vertex reached from both sides, at the level it
// is expanding, and these seed-pinned sweeps hold that answer to a plain
// BFS.

// exactDistContract sweeps every pair of g through an oracle and asserts
// every answer exact and equal to the true spanner distance from a plain
// BFS reference.
func exactDistContract(t *testing.T, g *graph.Graph, seed uint64) {
	t.Helper()
	o, err := NewFromGraphs(g, g, 3, Options{Seed: seed, SampleEvery: -1})
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
			if !a.Exact || a.Dist != ref[v] {
				t.Fatalf("Dist(%d,%d) = %d exact=%v, BFS says %d (seed=%d)",
					u, v, a.Dist, a.Exact, ref[v], seed)
			}
		}
	}
}

// TestSearchMeetingPoints drives the frontiers to meet at every distance:
// on a cycle, pairs sit at every distance up to n/2, and on a path at
// every distance up to n-1, so the sweep returns at a first meeting on
// every level count, odd and even. The odd cycle adds distances the two
// frontiers reach at unequal depths. Structured graphs, no randomness —
// any stopping-rule off-by-one fails deterministically.
func TestSearchMeetingPoints(t *testing.T) {
	exactDistContract(t, gen.Cycle(24), 9)
	exactDistContract(t, gen.Path(20), 9)
	exactDistContract(t, gen.Cycle(25), 9)
}

// TestDisconnectedSentinelPinnedSeeds sweeps sub-threshold Erdős–Rényi
// graphs — the family whose isolated vertices and small components empty
// a frontier before the other side is settled. The seeds are pinned: each
// produced a disconnected graph when this test was written, and the sweep
// asserts that disconnected pairs answer an exact Unreachable.
func TestDisconnectedSentinelPinnedSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 4, 7, 1002} {
		g := gen.ErdosRenyi(48, 1.2/48.0, rng.New(seed))
		if g.Connected() {
			t.Fatalf("seed %d no longer yields a disconnected graph; re-pin the seed", seed)
		}
		exactDistContract(t, g, seed)
	}
}
