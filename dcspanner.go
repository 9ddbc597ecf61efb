// Package dcspanner is the public facade of the DC-spanner library — a
// reproduction of "Sparse Spanners with Small Distance and Congestion
// Stretches" (Busch, Kowalski, Robinson; SPAA 2024).
//
// A DC-spanner of a graph G is a spanning subgraph H that simultaneously
// controls two stretches for every routing problem: the distance stretch α
// (each substitute path is at most α times longer) and the congestion
// stretch β (the substitute routing's maximum node congestion is at most β
// times the original's). This package re-exports the library's public
// surface; the implementations live in the internal packages:
//
//	internal/graph      graph substrate (CSR adjacency, BFS, parallel sweeps)
//	internal/gen        generators incl. every paper construction
//	internal/spectral   expansion certification (power iteration, mixing)
//	internal/matching   Hopcroft–Karp, Misra–Gries edge coloring
//	internal/routing    congestion, Algorithm 2 matching decomposition
//	internal/spanner    Theorem 2, Algorithm 1, baselines, verifiers
//	internal/core       the DC-spanner API tying it all together
//	internal/local      LOCAL-model simulator, Corollary 3
//	internal/lowerbound Lemma 18 / Theorem 4 / Figure 1 / Lemma 2 witnesses
//	internal/experiments the Table 1 + figures reproduction harness
//
// Quickstart:
//
//	g := dcspanner.MustRandomRegular(512, 96, 1)            // a dense expander
//	dc, err := dcspanner.Build(g, dcspanner.Options{
//		Algorithm: dcspanner.AlgoExpander, Seed: 1,
//	})
//	// dc.Graph() is a 3-distance spanner with ~n^{5/3} edges.
//	prob := dcspanner.RandomProblem(g.N(), 100, 2)
//	onG, onH, err := dc.RouteProblem(prob)                  // Theorem 1 pipeline
//	res := dcspanner.MeasureStretch(g.N(), onG, onH)        // realized (α, β)
package dcspanner

import (
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/packetsim"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/spanner"
)

// Core re-exports.
type (
	// Graph is an immutable undirected simple graph.
	Graph = graph.Graph
	// Edge is an undirected edge with U < V after normalization.
	Edge = graph.Edge
	// Builder accumulates edges into a Graph.
	Builder = graph.Builder

	// Options configures Build.
	Options = core.Options
	// Algorithm selects a spanner construction.
	Algorithm = core.Algorithm
	// DCSpanner is a built spanner with substitute-routing machinery.
	DCSpanner = core.DCSpanner
	// StretchResult reports the realized (α, β) of a substitute routing.
	StretchResult = core.StretchResult

	// Problem is a routing problem (source–destination pairs).
	Problem = routing.Problem
	// Pair is one source–destination request.
	Pair = routing.Pair
	// Path is a vertex sequence.
	Path = routing.Path
	// Routing is a set of paths answering a Problem.
	Routing = routing.Routing

	// StretchReport summarizes a distance-stretch verification.
	StretchReport = spanner.StretchReport
	// ExpanderOptions configures the Theorem 2 construction.
	ExpanderOptions = spanner.ExpanderOptions
	// RegularOptions configures Algorithm 1.
	RegularOptions = spanner.RegularOptions
)

// Algorithms.
const (
	AlgoExpander        = core.AlgoExpander
	AlgoRegular         = core.AlgoRegular
	AlgoBaswanaSen      = core.AlgoBaswanaSen
	AlgoGreedy          = core.AlgoGreedy
	AlgoSparsifyUniform = core.AlgoSparsifyUniform
	AlgoBoundedDegree   = core.AlgoBoundedDegree
)

// Build constructs a DC-spanner of g. See core.Build.
func Build(g *Graph, opts Options) (*DCSpanner, error) { return core.Build(g, opts) }

// MeasureStretch computes the (α, β) realized by a substitute routing.
func MeasureStretch(n int, orig, sub *Routing) StretchResult {
	return core.MeasureStretch(n, orig, sub)
}

// NewBuilder creates a graph builder on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// RandomRegular samples a random d-regular simple graph.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	return gen.RandomRegular(n, d, rng.New(seed))
}

// MustRandomRegular is RandomRegular that panics on error.
func MustRandomRegular(n, d int, seed uint64) *Graph {
	return gen.MustRandomRegular(n, d, rng.New(seed))
}

// Margulis returns the explicit Margulis–Gabber–Galil expander on m²
// vertices.
func Margulis(m int) *Graph { return gen.Margulis(m) }

// Paley returns the Paley graph on a prime q ≡ 1 (mod 4): a deterministic
// (q−1)/2-regular expander with spectral expansion exactly (√q+1)/2.
func Paley(q int) (*Graph, error) { return gen.Paley(q) }

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) *Graph { return gen.Hypercube(d) }

// Clique returns the complete graph K_n.
func Clique(n int) *Graph { return gen.Clique(n) }

// RandomProblem samples k random source–destination pairs on n vertices.
func RandomProblem(n, k int, seed uint64) Problem {
	return routing.RandomProblem(n, k, rng.New(seed))
}

// RandomMatchingProblem samples a matching routing problem with k pairs.
func RandomMatchingProblem(n, k int, seed uint64) Problem {
	return routing.RandomMatchingProblem(n, k, rng.New(seed))
}

// RandomPermutationProblem builds a permutation routing problem.
func RandomPermutationProblem(n int, seed uint64) Problem {
	return routing.RandomPermutationProblem(n, rng.New(seed))
}

// VerifyEdgeStretch certifies h as an alpha-distance spanner of g by
// checking every edge of g has a ≤alpha-hop substitute in h.
func VerifyEdgeStretch(g, h *Graph, alpha int) StretchReport {
	return spanner.VerifyEdgeStretch(g, h, alpha)
}

// MinCongestion computes a routing for prob that approximately minimizes
// the node congestion C(P) — the paper's C(R) (Section 2) — via
// exponential-potential rerouting.
func MinCongestion(g *Graph, prob Problem, seed uint64) (*Routing, error) {
	return routing.MinCongestion(g, prob, routing.MinCongestionOptions{Seed: seed})
}

// Oracle re-exports: the concurrent DC-spanner query engine serving
// point-to-point Dist/Route queries with realized-stretch accounting.
// Distance resolution is pluggable (OracleOptions.Backend): the default
// landmark-bibfs engine (a bidirectional BFS, nothing precomputed), an
// exact all-pairs table for small graphs, a stretch-3 hub/bunch
// structure for sparse graphs, or "auto" to benchmark them at startup
// and serve the fastest within budget.
type (
	// Oracle answers distance and route queries over a DC-spanner.
	Oracle = oracle.Oracle
	// OracleOptions configures NewOracle.
	OracleOptions = oracle.Options
	// OracleQuery is one point-to-point distance request.
	OracleQuery = oracle.Query
	// OracleAnswer is the oracle's reply to a query.
	OracleAnswer = oracle.Answer
	// OracleStats snapshots the oracle's serving metrics.
	OracleStats = oracle.Stats
)

// Oracle backend names for OracleOptions.Backend (see the oracle package
// for each engine's space/query-time/stretch contract).
const (
	// OracleBackendLandmarkBiBFS is the default bidirectional BFS
	// engine: exact on the spanner, nothing precomputed.
	OracleBackendLandmarkBiBFS = oracle.BackendLandmarkBiBFS
	// OracleBackendExactCached precomputes the all-pairs table: O(n²)
	// space, O(1) exact queries — the small-graph choice.
	OracleBackendExactCached = oracle.BackendExactCached
	// OracleBackendSparseHub is the hub/bunch structure: ~O(n^{3/2})
	// space, O(√n) queries within stretch 3 — the sparse-graph choice.
	OracleBackendSparseHub = oracle.BackendSparseHub
	// OracleBackendAuto benchmarks every backend at startup on a sampled
	// query mix and serves the fastest within the memory budget.
	OracleBackendAuto = oracle.BackendAuto
)

// NewOracle builds a concurrent query oracle over a built DC-spanner:
//
//	o, err := dcspanner.NewOracle(dc, dcspanner.OracleOptions{})
//	ans, err := o.Dist(3, 77)            // exact-on-spanner distance
//	answers := o.AnswerBatch(queries)    // all cores, scheduling-independent
//	path, ans, err := o.Route(3, 77)     // substitute path + congestion accounting
func NewOracle(dc *DCSpanner, opts OracleOptions) (*Oracle, error) {
	return oracle.New(dc, opts)
}

// SimulatePackets runs the store-and-forward packet schedule (one packet
// forwarded per node per step, the Section 1.1 model) for a routing and
// returns makespan / latency / queue statistics.
func SimulatePackets(n int, rt *Routing) (*packetsim.Result, error) {
	return packetsim.Simulate(n, rt, packetsim.Options{Priority: packetsim.FarthestToGo})
}

// PacketResult re-exports the simulator's result type.
type PacketResult = packetsim.Result
