package spanner

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// RegularOptions configures Algorithm 1 (Section 4).
//
// The paper's analysis sets the support thresholds to a = λΔ' with
// λ = 2⁷ln²n/c₁ and b = c₁Δ. Those constants are asymptotic: for every n
// reachable in an experiment, λΔ' > Δ and no edge qualifies as supported,
// degenerating H to G. The options therefore expose the thresholds; the
// defaults scale the same way (a ∝ Δ', b ∝ Δ) with practical constants,
// and the experiments verify the resulting stretch/congestion shape. See
// DESIGN.md ("Asymptotic constants").
type RegularOptions struct {
	// DeltaPrime is Δ' (target sampled degree); 0 means ⌊√Δ⌋ per the paper.
	DeltaPrime int
	// SupportA is the 'a' of (a,b)-supported; 0 means max(1, ⌊AFrac·Δ'⌋).
	SupportA int
	// AFrac is the practical stand-in for λ: a = AFrac·Δ'. Default 0.5.
	AFrac float64
	// SupportB is the 'b' of (a,b)-supported; 0 means max(1, ⌊C1·Δ⌋).
	SupportB int
	// C1 is the paper's c₁ ∈ (0, 1−1/Δ). Default 0.25.
	C1 float64
	// EnsureDetour additionally reinserts any removed supported edge with
	// no surviving 3-detour in G', making H a 3-distance spanner
	// deterministically (the paper's prose description of reinsertion;
	// the analysis shows the set is empty w.h.p.). Default true via
	// DefaultRegularOptions.
	EnsureDetour bool
	// Seed drives the edge sampling.
	Seed uint64
	// Trace, when non-nil, receives the construction's phase spans
	// (sampling, support computation, reinsertion, detour checks).
	Trace *obs.Span
}

// DefaultRegularOptions returns options matching the paper's parameter
// shapes with practical constants.
func DefaultRegularOptions(seed uint64) RegularOptions {
	return RegularOptions{AFrac: 0.5, C1: 0.25, EnsureDetour: true, Seed: seed}
}

// PaperLambda returns the paper's λ = 2⁷·ln²n/c₁ (Algorithm 1 line 7) for
// reference and for documenting the constant-regime gap in experiments.
func PaperLambda(n int, c1 float64) float64 {
	ln := math.Log(float64(n))
	return 128 * ln * ln / c1
}

// RegularResult carries the Algorithm 1 outputs and accounting.
type RegularResult struct {
	Spanner *Spanner
	GPrime  *graph.Graph // G' = (V, E'), the sampled graph (line 5)

	Rho        float64 // the sampling probability Δ'/Δ
	DeltaPrime int
	SupportA   int
	SupportB   int

	Sampled             int // |E'|
	SupportedCount      int // |Ê|
	ReinsertedUnsupport int // |E ∖ Ê| reinserted on line 9-10
	ReinsertedNoDetour  int // supported-but-detourless edges reinserted (EnsureDetour)
}

// BuildRegular runs Algorithm 1 on a Δ-regular (or near-regular) graph:
//
//  1. keep each edge with probability ρ = Δ'/Δ → G';
//  2. compute Ê, the edges (a, b)-supported in at least one direction;
//  3. reinsert E” = E ∖ Ê;
//  4. (EnsureDetour) reinsert removed supported edges lacking a 3-detour
//     in G';
//  5. H = (V, E' ∪ E” ∪ reinserted).
func BuildRegular(g *graph.Graph, opts RegularOptions) (*RegularResult, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("spanner: empty graph")
	}
	delta := g.MaxDegree()
	if delta == 0 {
		return nil, fmt.Errorf("spanner: edgeless graph")
	}
	dp := opts.DeltaPrime
	if dp <= 0 {
		dp = int(math.Sqrt(float64(delta)))
		if dp < 1 {
			dp = 1
		}
	}
	rho := float64(dp) / float64(delta)
	if rho > 1 {
		rho = 1
	}
	aFrac := opts.AFrac
	if aFrac <= 0 {
		aFrac = 0.5
	}
	c1 := opts.C1
	if c1 <= 0 {
		c1 = 0.25
	}
	a := opts.SupportA
	if a <= 0 {
		a = int(aFrac * float64(dp))
		if a < 1 {
			a = 1
		}
	}
	b := opts.SupportB
	if b <= 0 {
		b = int(c1 * float64(delta))
		if b < 1 {
			b = 1
		}
	}

	rsp := opts.Trace.Start("regular")
	defer rsp.End()
	rsp.SetKV("rho", rho)

	r := rng.New(opts.Seed)
	ssp := rsp.Start("sample-gprime")
	gPrime := sampleEdges(g, rho, r)
	ssp.SetKV("sampled", gPrime.M())
	ssp.End()
	sup := rsp.Start("supported-edges")
	supported := SupportedEdges(g, a, b)
	sup.End()

	res := &RegularResult{
		GPrime:     gPrime,
		Rho:        rho,
		DeltaPrime: dp,
		SupportA:   a,
		SupportB:   b,
		Sampled:    gPrime.M(),
	}

	inPrime := make([]bool, g.M())
	{
		i := 0
		// FilterEdges preserved order, so a linear merge identifies E'.
		primeEdges := gPrime.Edges()
		for j, e := range g.Edges() {
			if i < len(primeEdges) && primeEdges[i] == e {
				inPrime[j] = true
				i++
			}
			_ = j
		}
	}

	psp := rsp.Start("partition-edges")
	keep := make([]bool, g.M())
	needCheck := make([]int, 0)
	for i := range keep {
		switch {
		case inPrime[i]:
			keep[i] = true
		case !supported[i]:
			keep[i] = true // E'' reinsertion (line 9–10)
			res.ReinsertedUnsupport++
		default:
			if opts.EnsureDetour {
				needCheck = append(needCheck, i)
			}
		}
		if supported[i] {
			res.SupportedCount++
		}
	}
	psp.SetKV("supported", res.SupportedCount)
	psp.SetKV("reinsertedUnsupported", res.ReinsertedUnsupport)
	psp.End()

	dsp := rsp.Start("detour-check")
	dsp.SetKV("candidates", len(needCheck))
	if len(needCheck) > 0 {
		// Parallel 3-detour existence checks in G' for removed supported
		// edges; reinsert those without one.
		edges := g.Edges()
		missing := make([]bool, len(needCheck))
		graph.ParallelRangeWorkers(len(needCheck), 0, func(_, lo, hi int) {
			scratch := graph.NewBFSScratch(n)
			for k := lo; k < hi; k++ {
				e := edges[needCheck[k]]
				if scratch.DistWithin(gPrime, e.U, e.V, 3) == graph.Unreachable {
					missing[k] = true
				}
			}
		})
		for k, m := range missing {
			if m {
				keep[needCheck[k]] = true
				res.ReinsertedNoDetour++
			}
		}
	}
	dsp.SetKV("reinserted", res.ReinsertedNoDetour)
	dsp.End()

	idx := 0
	h := g.FilterEdges(func(e graph.Edge) bool {
		k := keep[idx]
		idx++
		return k
	})
	res.Spanner = &Spanner{Base: g, H: h, Primary: gPrime, Algorithm: "algorithm1-regular"}
	return res, nil
}

// TheoremEdgeBound returns the Theorem 3 edge bound shape n^{5/3}·log²n,
// for normalizing measured |E(H)| in the harness.
func TheoremEdgeBound(n int) float64 {
	ln := math.Log2(float64(n))
	return math.Pow(float64(n), 5.0/3.0) * ln * ln
}
