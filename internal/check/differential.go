package check

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/spanner"
)

// workerCounts is the worker-count sweep every parallel kernel is checked
// at: inline, minimal parallelism, and oversubscribed (more workers than
// this container has cores).
var workerCounts = []int{1, 2, 8}

// alpha is the stretch bound the verification kernels are run with. Its
// exact value is immaterial to the differential (the reference uses the
// same one); 3 matches the paper's headline construction.
const alpha = 3

// Options parameterizes a differential run. The zero value is a full
// sweep of every family at seed 0 (which Run remaps to a fixed nonzero
// default so derived streams are never the degenerate all-zero state).
type Options struct {
	// Seed keys every random choice of the run. A divergence found at
	// seed S in family F reproduces with exactly those two values.
	Seed uint64
	// Quick shrinks graph sizes and trace lengths for CI gating.
	Quick bool
	// Families restricts the sweep to the named families; empty means all.
	Families []string
	// Backend restricts the backend sweep to one oracle backend (a
	// Backend* name from the oracle package) and forces it into the
	// router differential. Empty sweeps every backend. The
	// landmark-bibfs differential (checkOracle) runs only when that
	// backend is in scope.
	Backend string
	// Logf, when non-nil, receives per-family progress lines.
	Logf func(format string, args ...any)
}

// DefaultSeed is the run seed used when Options.Seed is zero.
const DefaultSeed = 0xd15c0c0de

// landmarkInScope reports whether the landmark backend's own
// differentials should run under this configuration.
func landmarkInScope(opts Options) bool {
	return opts.Backend == "" || opts.Backend == oracle.BackendLandmarkBiBFS
}

// Run executes the differential sweep and returns its report. It only
// returns a non-nil error for configuration problems (unknown family
// names); divergences are data, reported in Report.Divergences.
func Run(opts Options) (Report, error) {
	fams, err := LookupFamilies(opts.Families)
	if err != nil {
		return Report{}, err
	}
	if opts.Seed == 0 {
		opts.Seed = DefaultSeed
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := Report{}
	for _, f := range fams {
		before := len(rep.Divergences)
		runFamily(&rep, f, opts)
		rep.Families++
		logf("family %-18s checks=%d divergences=%d", f.Name, rep.Checks, len(rep.Divergences)-before)
	}
	runRouterDifferential(&rep, opts)
	logf("router fleet          checks=%d divergences=%d", rep.Checks, len(rep.Divergences))
	return rep, nil
}

// checker accumulates assertions for one (family, check) context.
type checker struct {
	rep    *Report
	family string
	check  string
	seed   uint64
}

func (c *checker) assert(ok bool, format string, args ...any) bool {
	c.rep.Checks++
	if c.rep.tally == nil {
		c.rep.tally = make(map[label]int)
	}
	c.rep.tally[label{c.family, c.check}]++
	if !ok {
		c.rep.Divergences = append(c.rep.Divergences, Divergence{
			Family: c.family,
			Check:  c.check,
			Seed:   c.seed,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	return ok
}

// variant is one (spanner, base) pair a family is checked under.
type variant struct {
	name string
	h    *graph.Graph
}

// runFamily drives every differential for one generator family: build the
// graph, derive spanner variants, and check the oracle, the verification
// kernels, and the congestion kernels against the exact references.
func runFamily(rep *Report, f Family, opts Options) {
	seed := familySeed(opts.Seed, f.Name)
	r := rng.New(seed)
	g := f.Build(r.Split(), opts.Quick)

	ck := &checker{rep: rep, family: f.Name, check: "graph-invariants", seed: opts.Seed}
	if err := GraphInvariants(g); !ck.assert(err == nil, "%v", err) {
		return // structurally broken graph poisons everything downstream
	}

	distG := AllPairs(g)
	variants := []variant{{name: "identity", h: g}}
	if f.Spanner != nil {
		variants = append(variants, variant{name: "paper", h: f.Spanner(r.Split(), opts.Quick)})
	}
	if h := forestSpanner(g, r.Split()); h != nil {
		variants = append(variants, variant{name: "forest", h: h})
	}
	if h := randomSubgraph(g, r.Split()); h != nil {
		variants = append(variants, variant{name: "random-sub", h: h})
	}

	// The sampler arm draws from a stream of its own, so the other arms'
	// inputs do not depend on it.
	samplerRNG := rng.New(familySeed(opts.Seed, f.Name+"/sampler"))
	for _, v := range variants {
		ck := &checker{rep: rep, family: f.Name, check: "spanner-invariants/" + v.name, seed: opts.Seed}
		if err := SpannerInvariants(g, v.h); !ck.assert(err == nil, "%v", err) {
			continue
		}
		if v.name == "identity" || v.name == "forest" {
			ck.check = "connectivity/" + v.name
			ck.assert(ConnectivityPreserved(g, v.h) == nil, "spanner disconnects the base graph")
		}
		distH := distG
		if v.h != g {
			distH = AllPairs(v.h)
			checkSampler(rep, f.Name, g, v, distG, distH, opts, samplerRNG.Split())
		}
		if landmarkInScope(opts) {
			checkOracle(rep, f.Name, v, distH, opts, r.Split())
		}
		checkBackends(rep, f.Name, v, distH, opts, r.Split())
		checkVerifyKernels(rep, f.Name, v, g, distG, distH, opts, r.Split())
		checkCongestion(rep, f.Name, v, opts, r.Split())
	}

	checkBFSKernels(rep, f.Name, g, opts, r.Split())
	checkDynamic(rep, f.Name, g, opts, r.Split())
}

// checkBFSKernels is the multi-source kernel differential: the
// bit-parallel kernel, the scalar parallel kernel, and the naive
// per-source BFS must produce identical distance rows at every worker
// count (bit-parallel == scalar == naive). Sources are a stride sample
// wide enough to cross a 64-source word boundary plus a duplicate, so
// group packing and the duplicate-source path are both exercised.
func checkBFSKernels(rep *Report, family string, g *graph.Graph, opts Options, r *rng.RNG) {
	n := g.N()
	if n == 0 {
		return
	}
	count := 70 // crosses one bitGroup boundary
	if count > 2*n {
		count = 2 * n
	}
	srcs := make([]int32, 0, count+1)
	for i := 0; i < count; i++ {
		srcs = append(srcs, int32(r.Intn(n)))
	}
	srcs = append(srcs, srcs[0]) // duplicate source
	naive := make([][]int32, len(srcs))
	for i, s := range srcs {
		naive[i] = g.BFS(s)
	}
	for _, w := range workerCounts {
		ck := &checker{rep: rep, family: family,
			check: fmt.Sprintf("bfs-kernels/workers=%d", w), seed: opts.Seed}
		scalar := g.ParallelBFSFrom(srcs, w)
		bitp := g.BitParallelBFSFrom(srcs, w)
		for i := range srcs {
			if !ck.assert(int32sEqual(scalar.Row(i), naive[i]),
				"scalar kernel row %d (source %d) differs from naive BFS", i, srcs[i]) {
				break
			}
			if !ck.assert(int32sEqual(bitp.Row(i), naive[i]),
				"bit-parallel kernel row %d (source %d) differs from naive BFS", i, srcs[i]) {
				break
			}
		}
	}
}

func int32sEqual(a, b []int32) bool {
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

// forestSpanner returns a spanning forest of g plus a random ~30% of the
// remaining edges: always connectivity-preserving, usually much sparser
// than g. Returns nil for edgeless graphs (the identity variant covers
// those).
func forestSpanner(g *graph.Graph, r *rng.RNG) *graph.Graph {
	if g.M() == 0 {
		return nil
	}
	n := g.N()
	b := graph.NewBuilder(n)
	inTree := make([]bool, n)
	queue := make([]int32, 0, n)
	for root := int32(0); root < int32(n); root++ {
		if inTree[root] {
			continue
		}
		inTree[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if !inTree[w] {
					inTree[w] = true
					b.AddEdge(u, w)
					queue = append(queue, w)
				}
			}
		}
	}
	forest := b.MustBuild()
	for _, e := range g.Edges() {
		// Draw for every edge so the stream is independent of forest shape.
		keep := r.Bernoulli(0.3)
		if keep && !forest.HasEdge(e.U, e.V) {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.MustBuild()
}

// randomSubgraph keeps each edge of g independently with probability 0.55
// — the variant that exercises disconnected pairs and the Unreachable
// sentinel end to end. Returns nil for edgeless graphs.
func randomSubgraph(g *graph.Graph, r *rng.RNG) *graph.Graph {
	if g.M() == 0 {
		return nil
	}
	keep := make([]bool, g.M())
	for i := range keep {
		keep[i] = r.Bernoulli(0.55)
	}
	i := 0
	return g.FilterEdges(func(graph.Edge) bool {
		k := keep[i]
		i++
		return k
	})
}

// sampleQueries draws the query set one oracle differential runs against:
// random ordered pairs (u == v included), plus the fixed corner pairs.
func sampleQueries(n, count int, r *rng.RNG) []oracle.Query {
	qs := make([]oracle.Query, 0, count+2)
	for i := 0; i < count; i++ {
		qs = append(qs, oracle.Query{U: int32(r.Intn(n)), V: int32(r.Intn(n))})
	}
	qs = append(qs, oracle.Query{U: 0, V: int32(n - 1)}, oracle.Query{U: 0, V: 0})
	return qs
}

// checkAnswer asserts one landmark-bibfs Answer against the exact
// reference: a bound equal to the answer, and an exact answer equal to
// the exact spanner distance.
func checkAnswer(ck *checker, a oracle.Answer, distH *graph.TriDist) {
	u, v := a.U, a.V
	if u == v {
		ck.assert(a.Dist == 0 && a.Bound == 0 && a.Exact,
			"(%d,%d): self-query got dist=%d bound=%d exact=%v", u, v, a.Dist, a.Bound, a.Exact)
		return
	}
	ref := distH.At(u, v)
	if !ck.assert(a.Bound == a.Dist, "(%d,%d): bound=%d differs from dist=%d", u, v, a.Bound, a.Dist) {
		return
	}
	ck.assert(a.Exact && a.Dist == ref,
		"(%d,%d): dist=%d exact=%v, want exact %d (reference BFS)", u, v, a.Dist, a.Exact, ref)
}

// checkOracle runs the landmark-bibfs differential for one spanner
// variant: one oracle over two passes (the second reuses the pooled
// search scratch the first left behind), AnswerBatch at every worker
// count, and invalid queries.
func checkOracle(rep *Report, family string, v variant, distH *graph.TriDist, opts Options, r *rng.RNG) {
	n := v.h.N()
	qn := 150
	if !opts.Quick {
		qn = 400
	}
	qs := sampleQueries(n, qn, r)
	oSeed := r.Uint64() | 1 // nonzero: 0 would mean "inherit build seed"

	o, err := oracle.NewFromGraphs(v.h, v.h, alpha, oracle.Options{
		Seed: oSeed, Workers: 1, SampleEvery: -1,
	})
	ck := &checker{rep: rep, family: family, check: "oracle-dist/" + v.name, seed: opts.Seed}
	if ck.assert(err == nil, "NewFromGraphs: %v", err) {
		for pass := 0; pass < 2; pass++ {
			for _, q := range qs {
				a, err := o.Dist(q.U, q.V)
				if !ck.assert(err == nil, "Dist(%d,%d) pass %d: %v", q.U, q.V, pass, err) {
					continue
				}
				checkAnswer(ck, a, distH)
			}
		}
	}

	// AnswerBatch: identical answers at every worker count, invalid
	// queries answered with the Unreachable sentinel instead of poisoning
	// the batch.
	batch := append(append([]oracle.Query(nil), qs...),
		oracle.Query{U: -1, V: 0}, oracle.Query{U: 0, V: int32(n)})
	var first []oracle.Answer
	for _, w := range workerCounts {
		o, err := oracle.NewFromGraphs(v.h, v.h, alpha, oracle.Options{
			Seed: oSeed, Workers: w, SampleEvery: -1,
		})
		ck := &checker{rep: rep, family: family,
			check: fmt.Sprintf("oracle-batch/%s/workers=%d", v.name, w), seed: opts.Seed}
		if !ck.assert(err == nil, "NewFromGraphs: %v", err) {
			continue
		}
		out := o.AnswerBatch(batch)
		if !ck.assert(len(out) == len(batch), "got %d answers for %d queries", len(out), len(batch)) {
			continue
		}
		for i, a := range out {
			q := batch[i]
			if q.U < 0 || q.V < 0 || int(q.U) >= n || int(q.V) >= n {
				ck.assert(a.Dist == graph.Unreachable && a.Bound == graph.Unreachable && !a.Exact,
					"invalid query (%d,%d): got dist=%d bound=%d exact=%v", q.U, q.V, a.Dist, a.Bound, a.Exact)
				continue
			}
			checkAnswer(ck, a, distH)
		}
		if first == nil {
			first = out
			continue
		}
		for i := range out {
			if !ck.assert(out[i] == first[i],
				"answer %d differs between workers=%d and workers=%d: %+v vs %+v",
				i, w, workerCounts[0], out[i], first[i]) {
				break
			}
		}
	}
}

// checkVerifyKernels runs the stretch-verification differential: the
// optimized parallel kernels at every worker count versus the brute-force
// reports computed from the exact distance matrices. Agreement is exact
// (float bit equality), not approximate — the references reduce in the
// same order as the kernels.
func checkVerifyKernels(rep *Report, family string, v variant, g *graph.Graph, distG, distH *graph.TriDist, opts Options, r *rng.RNG) {
	edgeRef := EdgeStretch(g, distH, alpha)
	for _, w := range workerCounts {
		ck := &checker{rep: rep, family: family,
			check: fmt.Sprintf("verify-edge/%s/workers=%d", v.name, w), seed: opts.Seed}
		got := spanner.VerifyEdgeStretchOpts(g, v.h, alpha, spanner.VerifyOptions{Workers: w})
		ck.assert(got == edgeRef, "got %+v, reference %+v", got, edgeRef)
	}

	n := g.N()
	pairs := 80
	if !opts.Quick {
		pairs = 250
	}
	if total := n * (n - 1) / 2; pairs > total {
		pairs = total
	}
	pairSeed := r.Uint64()
	ps := rng.New(pairSeed).SamplePairs(n, pairs)
	pairRef := PairStretch(distG, distH, ps)
	for _, w := range workerCounts {
		ck := &checker{rep: rep, family: family,
			check: fmt.Sprintf("verify-pair/%s/workers=%d", v.name, w), seed: opts.Seed}
		got := spanner.VerifyPairStretchOpts(g, v.h, pairs, rng.New(pairSeed), spanner.VerifyOptions{Workers: w})
		ck.assert(got == pairRef, "got %+v, reference %+v", got, pairRef)
	}
}

// checkCongestion routes a within-component problem on the spanner and
// compares the parallel congestion-accounting kernels at every worker
// count against the map-per-path reference.
func checkCongestion(rep *Report, family string, v variant, opts Options, r *rng.RNG) {
	n := v.h.N()
	comp, _ := v.h.Components()
	want := 25
	if !opts.Quick {
		want = 60
	}
	var prob routing.Problem
	for tries := 0; tries < 40*want && len(prob) < want; tries++ {
		u, w := int32(r.Intn(n)), int32(r.Intn(n))
		if u != w && comp[u] == comp[w] {
			prob = append(prob, routing.Pair{Src: u, Dst: w})
		}
	}
	ck := &checker{rep: rep, family: family, check: "congestion/" + v.name, seed: opts.Seed}
	if len(prob) == 0 {
		return // all-singleton components: nothing to route
	}
	route, err := routing.ShortestPaths(v.h, prob)
	if !ck.assert(err == nil, "ShortestPaths: %v", err) {
		return
	}
	ck.assert(route.Validate(v.h) == nil, "routing failed validation on its own graph")
	refProfile := NodeCongestionProfile(route.Paths, n)
	refMax := NodeCongestion(route.Paths, n)
	for _, w := range workerCounts {
		ck.check = fmt.Sprintf("congestion/%s/workers=%d", v.name, w)
		got := route.NodeCongestionProfileWorkers(n, w)
		ck.assert(intsEqual(got, refProfile), "profile differs from reference at workers=%d", w)
		ck.assert(route.NodeCongestionWorkers(n, w) == refMax,
			"max congestion %d != reference %d", route.NodeCongestionWorkers(n, w), refMax)
	}
}

func intsEqual(a, b []int) bool {
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
