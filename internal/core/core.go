// Package core is the paper's primary contribution as a library: the
// (α, β)-DC-spanner. It ties a spanner construction (Theorem 2's expander
// sampling, Algorithm 1 for Δ-regular graphs, or a baseline) to the
// Theorem 1 machinery (decomposition of an arbitrary routing into
// matchings and reassembly on the spanner), so that a caller holding any
// routing P on G obtains an (α, β)-stretch substitute routing P' on H and
// the measured stretches.
package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/spanner"
)

// Algorithm selects a spanner construction.
type Algorithm string

const (
	// AlgoExpander is Theorem 2: edge sampling with probability n^{−ε} on
	// a spectral expander; distance stretch 3, matching congestion 1+o(1)
	// expected / O(log n) w.h.p., general congestion O(log² n).
	AlgoExpander Algorithm = "expander"
	// AlgoRegular is Algorithm 1 / Theorem 3 for Δ-regular graphs with
	// Δ ≥ n^{2/3}: distance stretch 3, congestion stretch O(√Δ·log n).
	AlgoRegular Algorithm = "regular"
	// AlgoBaswanaSen is the classical (2k−1)-spanner baseline [4].
	AlgoBaswanaSen Algorithm = "baswana-sen"
	// AlgoGreedy is the greedy α-spanner baseline.
	AlgoGreedy Algorithm = "greedy"
	// AlgoSparsifyUniform is the Table 1 "[16]" stand-in.
	AlgoSparsifyUniform Algorithm = "sparsify-uniform"
	// AlgoBoundedDegree is the Table 1 "[5]" stand-in.
	AlgoBoundedDegree Algorithm = "bounded-degree"
)

// Options configures Build.
type Options struct {
	Algorithm Algorithm
	Seed      uint64

	// Expander configures AlgoExpander; if Epsilon and SampleProb are both
	// zero, ε is derived from the graph's degree via EpsilonForDegree.
	Expander spanner.ExpanderOptions
	// Regular configures AlgoRegular; zero-value fields take the defaults
	// of spanner.DefaultRegularOptions.
	Regular spanner.RegularOptions

	// K is the Baswana–Sen parameter (stretch 2k−1); default 2.
	K int
	// Alpha is the greedy spanner stretch; default 3.
	Alpha int
	// SparsifyC is the uniform sparsifier's log-factor constant; default 3.
	SparsifyC float64
	// BoundedDegree is the per-node nomination count for AlgoBoundedDegree;
	// default 4.
	BoundedDegree int

	// Trace, when non-nil, receives the construction's phase spans —
	// dcspan -trace and the experiments runner's -trace hang the build
	// phase tree off it. Nil disables tracing at no cost.
	Trace *obs.Span
}

// DCSpanner is a built spanner with its substitute-routing machinery.
type DCSpanner struct {
	sp   *spanner.Spanner
	opts Options

	// RegularResult is populated when Algorithm == AlgoRegular.
	RegularResult *spanner.RegularResult
}

// Build constructs a DC-spanner of g.
func Build(g *graph.Graph, opts Options) (*DCSpanner, error) {
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	d := &DCSpanner{opts: opts}
	tr := opts.Trace
	switch opts.Algorithm {
	case AlgoExpander, "":
		eo := opts.Expander
		if eo.Epsilon == 0 && eo.SampleProb == 0 {
			eo.Epsilon = spanner.EpsilonForDegree(g.N(), g.MaxDegree())
			if eo.Epsilon <= 0 {
				return nil, fmt.Errorf("core: degree %d too small for the Theorem 2 regime (need Δ > n^{2/3}); set Expander.SampleProb explicitly", g.MaxDegree())
			}
		}
		if eo.Seed == 0 {
			eo.Seed = opts.Seed
		}
		if eo.Trace == nil {
			eo.Trace = tr
		}
		sp, err := spanner.BuildExpander(g, eo)
		if err != nil {
			return nil, err
		}
		d.sp = sp
	case AlgoRegular:
		ro := opts.Regular
		if ro.Seed == 0 {
			ro.Seed = opts.Seed
		}
		if ro.AFrac == 0 && ro.C1 == 0 && ro.SupportA == 0 && ro.SupportB == 0 {
			def := spanner.DefaultRegularOptions(ro.Seed)
			def.DeltaPrime = ro.DeltaPrime
			ro = def
		}
		if ro.Trace == nil {
			ro.Trace = tr
		}
		res, err := spanner.BuildRegular(g, ro)
		if err != nil {
			return nil, err
		}
		d.sp = res.Spanner
		d.RegularResult = res
	case AlgoBaswanaSen:
		k := opts.K
		if k <= 0 {
			k = 2
		}
		sp, err := spanner.BaswanaSen(g, k, seedRNG(opts.Seed), tr)
		if err != nil {
			return nil, err
		}
		d.sp = sp
	case AlgoGreedy:
		alpha := opts.Alpha
		if alpha <= 0 {
			alpha = 3
		}
		gsp := tr.Start("greedy")
		d.sp = spanner.Greedy(g, alpha)
		gsp.SetKV("kept", d.sp.H.M())
		gsp.End()
	case AlgoSparsifyUniform:
		c := opts.SparsifyC
		if c <= 0 {
			c = 3
		}
		ssp := tr.Start("sparsify-uniform")
		sp, err := spanner.SparsifyUniform(g, c, opts.Seed)
		ssp.End()
		if err != nil {
			return nil, err
		}
		d.sp = sp
	case AlgoBoundedDegree:
		bd := opts.BoundedDegree
		if bd <= 0 {
			bd = 4
		}
		bsp := tr.Start("bounded-degree")
		sp, err := spanner.ExtractBoundedDegree(g, bd, opts.Seed)
		bsp.End()
		if err != nil {
			return nil, err
		}
		d.sp = sp
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", opts.Algorithm)
	}
	vsp := tr.Start("validate")
	err := d.sp.Validate()
	vsp.End()
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Base returns the original graph G.
func (d *DCSpanner) Base() *graph.Graph { return d.sp.Base }

// Seed returns the seed the spanner was built with, so derived structures
// (e.g. a query oracle's hub table) can key their own deterministic
// randomness off it.
func (d *DCSpanner) Seed() uint64 { return d.opts.Seed }

// CertifiedAlpha returns the distance stretch the construction certifies:
// 3 for the paper's Theorem 2 / Algorithm 1 spanners and the greedy
// default, 2k−1 for Baswana–Sen, and 0 for constructions whose stretch is
// only asymptotic (uniform sparsification, bounded-degree extraction) —
// callers treating 0 as "uncertified" should skip stretch assertions.
func (d *DCSpanner) CertifiedAlpha() int {
	switch d.opts.Algorithm {
	case AlgoExpander, AlgoRegular, "":
		return 3
	case AlgoGreedy:
		if d.opts.Alpha > 0 {
			return d.opts.Alpha
		}
		return 3
	case AlgoBaswanaSen:
		k := d.opts.K
		if k <= 0 {
			k = 2
		}
		return 2*k - 1
	default:
		return 0
	}
}

// Graph returns the spanner graph H.
func (d *DCSpanner) Graph() *graph.Graph { return d.sp.H }

// Spanner exposes the underlying construction.
func (d *DCSpanner) Spanner() *spanner.Spanner { return d.sp }

// VerifyDistance checks the per-edge distance stretch of H versus G.
func (d *DCSpanner) VerifyDistance(alpha int) spanner.StretchReport {
	return spanner.VerifyEdgeStretch(d.sp.Base, d.sp.H, alpha)
}

// SubstituteRouting runs the Theorem 1 pipeline on an arbitrary routing P
// in G: decompose P into matchings (Algorithm 2), route each matching on
// H with the spanner's replacement-path router, and splice the results
// into a substitute routing P' on H. The returned decomposition exposes
// the Lemma 21/23 accounting.
func (d *DCSpanner) SubstituteRouting(r *routing.Routing) (*routing.Routing, *routing.Decomposition, error) {
	router := d.sp.Router(d.opts.Seed ^ 0x5eed5eed5eed5eed)
	return routing.SubstituteViaMatchings(d.sp.Base.N(), r, router)
}

// RouteProblem routes a problem on G via BFS shortest paths, then
// substitutes it onto H, returning both routings.
func (d *DCSpanner) RouteProblem(prob routing.Problem) (onG, onH *routing.Routing, err error) {
	onG, err = routing.ShortestPaths(d.sp.Base, prob)
	if err != nil {
		return nil, nil, err
	}
	onH, _, err = d.SubstituteRouting(onG)
	if err != nil {
		return nil, nil, err
	}
	return onG, onH, nil
}

// StretchResult reports both stretches of a substitute routing versus the
// original (Definition 3's (α, β)-stretch substitute).
type StretchResult struct {
	DistanceStretch   float64 // max per-path length ratio
	CongestionG       int     // C(P) of the original routing
	CongestionH       int     // C(P') of the substitute
	CongestionStretch float64 // C(P') / C(P)
}

// MeasureStretch computes the (α, β) realized by a substitute routing.
func MeasureStretch(n int, orig, sub *routing.Routing) StretchResult {
	res := StretchResult{
		DistanceStretch: sub.Stretch(orig),
		CongestionG:     orig.NodeCongestion(n),
		CongestionH:     sub.NodeCongestion(n),
	}
	if res.CongestionG > 0 {
		res.CongestionStretch = float64(res.CongestionH) / float64(res.CongestionG)
	}
	return res
}
