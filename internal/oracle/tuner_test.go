package oracle

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// oneVertexGraph is the smallest graph New accepts: a single isolated
// vertex, on which every probe pair is a self-pair.
func oneVertexGraph() *graph.Graph { return graph.FromEdges(1, nil) }

// On a 1-vertex graph no candidate answers any probe, so the tolerance
// band covers all of them and the declared stretch bound alone decides:
// the tuner must serve a stretch≤1 backend, not the stretch-3 sparse
// structure that sub-nanosecond loop-overhead noise used to pick.
func TestTunerOneVertexPrefersSmallStretch(t *testing.T) {
	g := oneVertexGraph()
	o, err := NewFromGraphs(g, g, 0, Options{Backend: BackendAuto, SampleEvery: -1, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := o.TunerReport()
	if rep == nil {
		t.Fatal("auto backend produced no tuner report")
	}
	for _, c := range rep.Candidates {
		if c.Skipped != "" {
			t.Fatalf("candidate %s skipped on a 1-vertex graph: %s", c.Name, c.Skipped)
		}
		if c.Answered != 0 || c.QueryNs != 0 {
			t.Fatalf("candidate %s answered %d probes (QueryNs=%v) with one vertex",
				c.Name, c.Answered, c.QueryNs)
		}
	}
	bs := o.BackendStats()
	if bs.StretchBound != 1 {
		t.Fatalf("1-vertex auto-tune chose %s with stretch bound %d, want a stretch≤1 backend",
			bs.Name, bs.StretchBound)
	}
	if !strings.Contains(rep.String(), "probes=0") {
		t.Fatalf("report does not render the answered-probe count:\n%s", rep.String())
	}
}

// On a 2-vertex graph every probe can be redrawn to the one valid pair,
// so each timed candidate must report a full complement of answered
// probes — the mean no longer divides by skipped self-pairs.
func TestTunerTwoVertexAnswersEveryProbe(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	const probes = 64
	o, err := NewFromGraphs(g, g, 0, Options{
		Backend: BackendAuto, SampleEvery: -1, Workers: 1, Seed: 2, TunerProbes: probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := o.TunerReport()
	if rep == nil {
		t.Fatal("auto backend produced no tuner report")
	}
	for _, c := range rep.Candidates {
		if c.Skipped != "" {
			t.Fatalf("candidate %s skipped on a 2-vertex graph: %s", c.Name, c.Skipped)
		}
		if c.Answered != probes {
			t.Fatalf("candidate %s answered %d of %d probes; self-pairs must be redrawn",
				c.Name, c.Answered, probes)
		}
		if c.QueryNs <= 0 {
			t.Fatalf("candidate %s has no mean probe latency over %d answered probes", c.Name, c.Answered)
		}
	}
	if a, err := o.Dist(0, 1); err != nil || a.Dist != 1 {
		t.Fatalf("Dist(0,1) = %+v, %v", a, err)
	}
}

// A budget below every non-landmark estimate exercises the
// estimate-over-budget Skipped branch for each of them; landmark-bibfs
// precomputes nothing, so its 0-byte estimate fits and it must serve.
func TestTunerBudgetSkipsEveryNonLandmarkEstimate(t *testing.T) {
	dc := buildTestSpanner(t, 96, 32, 31)
	o, err := New(dc, Options{Backend: BackendAuto, MemoryBudget: 1, SampleEvery: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.Backend() != BackendLandmarkBiBFS {
		t.Fatalf("1-byte budget picked %q, want %q", o.Backend(), BackendLandmarkBiBFS)
	}
	for _, c := range o.TunerReport().Candidates {
		if c.Name == BackendLandmarkBiBFS {
			if c.Skipped != "" {
				t.Fatalf("landmark backend skipped: %s", c.Skipped)
			}
			continue
		}
		if c.Skipped != "estimate over memory budget" {
			t.Fatalf("candidate %s: Skipped = %q, want the estimate branch", c.Name, c.Skipped)
		}
	}
}

// hublessPathGraph builds the estimate-under/realized-over construction:
// a K4 clique (vertices 0..3, holding the highest-degree first hub)
// beside a disjoint 60-vertex path. When both sparse hubs land in the
// clique, every path vertex has an unreachable hub set and its bunch
// covers the whole 60-vertex component — ~3600 bunch entries, far above
// the n·(n/k) = ~2100-entry estimate.
func hublessPathGraph() *graph.Graph {
	var edges []graph.Edge
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	for v := int32(5); v < 64; v++ {
		edges = append(edges, graph.Edge{U: v - 1, V: v})
	}
	return graph.FromEdges(64, edges)
}

// A candidate whose estimate fits the budget but whose realized size does
// not must hit the built-size Skipped branch after being timed out of the
// race. Hub sampling is seed-keyed, so scan seeds for one that drops the
// second sparse hub into the clique (probability ~1/21 per seed).
func TestTunerRealizedSizeOverBudgetSkips(t *testing.T) {
	g := hublessPathGraph()
	const budget = 20000 // sparseMemoryEstimate(64,2)=17416 < budget < hubless-path realized ~29k
	for seed := uint64(1); seed <= 400; seed++ {
		o, err := NewFromGraphs(g, g, 0, Options{
			Backend: BackendAuto, SparseHubs: 2, MemoryBudget: budget,
			SampleEvery: -1, Workers: 1, Seed: seed, TunerProbes: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range o.TunerReport().Candidates {
			if c.Name != BackendSparseHub || c.Skipped != "built size over memory budget" {
				continue
			}
			if c.MemoryBytes <= budget {
				t.Fatalf("seed %d: skipped for size with MemoryBytes %d <= budget %d",
					seed, c.MemoryBytes, budget)
			}
			if c.BuildNs <= 0 {
				t.Fatalf("seed %d: built-size skip must record the build time, got %d", seed, c.BuildNs)
			}
			if got := o.Backend(); got == BackendSparseHub {
				t.Fatalf("seed %d: serving the over-budget sparse backend", seed)
			}
			return
		}
	}
	t.Fatal("no seed in 1..400 produced a realized-size-over-budget sparse candidate")
}
