package spanner

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/rng"
)

// ExpanderOptions configures the Theorem 2 construction.
type ExpanderOptions struct {
	// Epsilon is the sampling exponent: each edge of G is kept
	// independently with probability n^{−Epsilon}. Theorem 2's premise is
	// an n^{2/3+ε}-regular expander; with that degree the spanner has
	// expected degree n^{2/3} and O(n^{5/3}) edges.
	Epsilon float64
	// SampleProb, if positive, overrides the probability directly (useful
	// for sweeps).
	SampleProb float64
	// Seed drives the edge sampling.
	Seed uint64
	// EnsureConnected retries the sampling (with evolving randomness)
	// until H is connected, up to 16 attempts. The theorem guarantees
	// connectivity w.h.p. for the stated parameter regime; for small-n
	// experiments the retry keeps the harness robust.
	EnsureConnected bool
	// Trace, when non-nil, receives the construction's phase spans
	// (sampling, connectivity checks) as children.
	Trace *obs.Span
}

// EpsilonForDegree returns the ε for which a Δ-regular n-vertex graph
// matches the Theorem 2 premise Δ = n^{2/3+ε}.
func EpsilonForDegree(n, delta int) float64 {
	return math.Log(float64(delta))/math.Log(float64(n)) - 2.0/3.0
}

// ProbForEpsilon returns the Theorem 2 sampling probability n^{−ε}.
func ProbForEpsilon(n int, eps float64) float64 {
	p := math.Pow(float64(n), -eps)
	if p > 1 {
		return 1
	}
	return p
}

// BuildExpander runs the Theorem 2 construction: independently keep every
// edge with probability p = n^{−ε} (or SampleProb). The returned spanner
// routes removed matching edges over uniformly random 3-hop paths, which
// is exactly the theorem's replacement-path rule; with the premise's
// expansion those paths cross the neighborhood matchings M_{u,v}^S of
// Lemma 4 in aggregate.
func BuildExpander(g *graph.Graph, opts ExpanderOptions) (*Spanner, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("spanner: empty graph")
	}
	p := opts.SampleProb
	if p <= 0 {
		if opts.Epsilon <= 0 {
			return nil, fmt.Errorf("spanner: BuildExpander needs Epsilon > 0 or SampleProb > 0")
		}
		p = math.Pow(float64(n), -opts.Epsilon)
	}
	if p > 1 {
		p = 1
	}
	r := rng.New(opts.Seed)
	attempts := 1
	if opts.EnsureConnected {
		attempts = 16
	}
	esp := opts.Trace.Start("expander")
	defer esp.End()
	esp.SetKV("p", fmt.Sprintf("%.4g", p))
	var h *graph.Graph
	for try := 0; try < attempts; try++ {
		ssp := esp.Start("sample-edges")
		ssp.SetKV("attempt", try+1)
		h = sampleEdges(g, p, r)
		ssp.SetKV("kept", h.M())
		ssp.End()
		csp := esp.Start("connectivity-check")
		ok := !opts.EnsureConnected || h.Connected()
		csp.End()
		if ok {
			esp.SetKV("attempts", try+1)
			return &Spanner{Base: g, H: h, Primary: h, Algorithm: "theorem2-expander"}, nil
		}
	}
	return nil, fmt.Errorf("spanner: sampled subgraph disconnected after %d attempts (p=%v)", attempts, p)
}

// sampleEdges keeps each edge independently with probability p. The
// per-edge coin flips come from per-chunk child streams split off the
// parent so the sample is deterministic in (seed) yet the sweep is
// parallel.
func sampleEdges(g *graph.Graph, p float64, r *rng.RNG) *graph.Graph {
	m := g.M()
	keep := make([]bool, m)
	// Chunked determinism: fixed chunk size decouples the result from
	// GOMAXPROCS.
	const chunk = 4096
	numChunks := (m + chunk - 1) / chunk
	streams := make([]*rng.RNG, numChunks)
	for i := range streams {
		streams[i] = r.Split()
	}
	graph.ParallelRangeWorkers(numChunks, 0, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			cr := streams[c]
			start := c * chunk
			end := start + chunk
			if end > m {
				end = m
			}
			for i := start; i < end; i++ {
				keep[i] = cr.Bernoulli(p)
			}
		}
	})
	idx := 0
	return g.FilterEdges(func(e graph.Edge) bool {
		k := keep[idx]
		idx++
		return k
	})
}

// NeighborhoodMatching computes a maximum matching between N(u) and N(v)
// using edges of g — Lemma 4's M between N_u and N_v (Figure 2). The
// returned edges are node-disjoint edges of g with one endpoint playing
// the N_u role and the other the N_v role. Following the lemma statement,
// the full neighborhoods participate (v itself may sit in N_u).
//
// When N(u) ∩ N(v) ≠ ∅ the problem is NOT bipartite (two shared neighbors
// may be matched to each other, one playing the N_u role and the other
// the N_v role), so this uses Edmonds' blossom algorithm on the induced
// allowed-edge graph rather than Hopcroft–Karp.
func NeighborhoodMatching(g *graph.Graph, u, v int32) []graph.Edge {
	inU := make(map[int32]bool)
	inV := make(map[int32]bool)
	localID := make(map[int32]int32)
	var verts []int32
	add := func(x int32) {
		if _, ok := localID[x]; !ok {
			localID[x] = int32(len(verts))
			verts = append(verts, x)
		}
	}
	for _, x := range g.Neighbors(u) {
		inU[x] = true
		add(x)
	}
	for _, y := range g.Neighbors(v) {
		inV[y] = true
		add(y)
	}
	gg := matching.NewGeneralGraph(len(verts))
	for _, x := range verts {
		for _, y := range g.Neighbors(x) {
			if y <= x { // add each edge once
				continue
			}
			if _, ok := localID[y]; !ok {
				continue
			}
			if (inU[x] && inV[y]) || (inV[x] && inU[y]) {
				gg.AddEdge(localID[x], localID[y])
			}
		}
	}
	match, _ := matching.Blossom(gg)
	var out []graph.Edge
	for a := int32(0); a < int32(len(verts)); a++ {
		b := match[a]
		if b > a {
			out = append(out, graph.Edge{U: verts[a], V: verts[b]}.Normalize())
		}
	}
	return out
}

// NeighborhoodMatchingBipartite computes the maximum matching between
// N(u) and N(v) in the bipartite double cover: each side is a full copy
// of the neighborhood, and a vertex in N(u) ∩ N(v) may be used once per
// side. This is the combinatorial quantity Lemma 4's mixing-lemma
// argument bounds (e(M̄_u, M̄_v) = 0 by maximality); the node-disjoint
// variant (NeighborhoodMatching) can be up to the overlap smaller.
func NeighborhoodMatchingBipartite(g *graph.Graph, u, v int32) int {
	left := g.Neighbors(u)
	right := g.Neighbors(v)
	rightIdx := make(map[int32]int32, len(right))
	for i, y := range right {
		rightIdx[y] = int32(i)
	}
	b := &matching.Bipartite{L: len(left), R: len(right), Adj: make([][]int32, len(left))}
	for li, x := range left {
		for _, y := range g.Neighbors(x) {
			if ri, ok := rightIdx[y]; ok && y != x {
				b.Adj[li] = append(b.Adj[li], ri)
			}
		}
	}
	_, size := matching.HopcroftKarp(b)
	return size
}

// Lemma4Bound returns Δ(1 − λn/Δ²), the matching-size lower bound of
// Lemma 4 for a Δ-regular graph with spectral expansion λ.
func Lemma4Bound(n, delta int, lambda float64) float64 {
	d := float64(delta)
	return d * (1 - lambda*float64(n)/(d*d))
}
