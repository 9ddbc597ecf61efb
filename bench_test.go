package dcspanner

// One benchmark per reproduced table row / figure of the paper (see
// DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured numbers). Each benchmark runs the experiment kernel
// and reports its headline measurement via b.ReportMetric, so
// `go test -bench . -benchmem` regenerates the evaluation.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/local"
	"repro/internal/lowerbound"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/spanner"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	run, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Config{Seed: 42, Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if strings.Contains(res.Body, "viol=") && !strings.Contains(res.Body, "viol=0") {
			b.Fatalf("%s: stretch violation:\n%s", id, res.Body)
		}
	}
}

// BenchmarkTable1Theorem2 regenerates the Table 1 "Theorem 2" row:
// expander DC-spanner with stretch 3 and O(n^{5/3}) edges.
func BenchmarkTable1Theorem2(b *testing.B) {
	n, d := 216, 60
	g := gen.MustRandomRegular(n, d, rng.New(1))
	eps := spanner.EpsilonForDegree(n, d)
	var edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := spanner.BuildExpander(g, spanner.ExpanderOptions{
			Epsilon: eps, Seed: uint64(i) + 1, EnsureConnected: true})
		if err != nil {
			b.Fatal(err)
		}
		edges = sp.H.M()
	}
	b.ReportMetric(float64(edges)/math.Pow(float64(n), 5.0/3.0), "edges/n^1.67")
}

// BenchmarkTable1Theorem3 regenerates the Table 1 "Theorem 3" row:
// Algorithm 1 on a Δ-regular graph, Δ ≥ n^{2/3}.
func BenchmarkTable1Theorem3(b *testing.B) {
	n, d := 216, 40
	g := gen.MustRandomRegular(n, d, rng.New(2))
	var edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := spanner.BuildRegular(g, spanner.DefaultRegularOptions(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		edges = res.Spanner.H.M()
	}
	b.ReportMetric(float64(edges)/float64(g.M()), "edgeRatio")
}

// BenchmarkTable1KoutisXu regenerates the "[16]" row: uniform spectral
// sparsification to O(n log n) edges.
func BenchmarkTable1KoutisXu(b *testing.B) {
	n, d := 512, 64
	g := gen.MustRandomRegular(n, d, rng.New(3))
	var edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := spanner.SparsifyUniform(g, 3.0, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		edges = sp.H.M()
	}
	b.ReportMetric(float64(edges)/(float64(n)*math.Log2(float64(n))), "edges/nlogn")
}

// BenchmarkTable1BoundedDegree regenerates the "[5]" row: bounded-degree
// expander extraction from a dense expander.
func BenchmarkTable1BoundedDegree(b *testing.B) {
	g, err := gen.DenseExpander(128, 0.5, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	var edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := spanner.ExtractBoundedDegree(g, 5, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		edges = sp.H.M()
	}
	b.ReportMetric(float64(edges)/float64(g.N()), "edges/n")
}

// BenchmarkTable1Theorem4 regenerates the lower-bound row: the composite
// fan graph's optimal 3-spanner and its forced congestion stretch.
func BenchmarkTable1Theorem4(b *testing.B) {
	inst, err := gen.Theorem4Affine(7)
	if err != nil {
		b.Fatal(err)
	}
	var stretch float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := lowerbound.AnalyzeTheorem4(inst)
		if err != nil {
			b.Fatal(err)
		}
		stretch = an.MeasuredStretch
	}
	b.ReportMetric(stretch, "congStretch")
}

// BenchmarkFigure1VFT regenerates the Figure 1 counterexample.
func BenchmarkFigure1VFT(b *testing.B) {
	var cong int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := lowerbound.AnalyzeVFT(216)
		if err != nil {
			b.Fatal(err)
		}
		cong = an.CongestionH
	}
	b.ReportMetric(float64(cong), "congestion")
}

// BenchmarkFigure2Matching regenerates the Lemma 4 / Figure 2 measurement.
func BenchmarkFigure2Matching(b *testing.B) {
	r := rng.New(5)
	g := gen.MustRandomRegular(128, 64, r)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := spanner.NeighborhoodMatching(g, int32(i%128), int32((i+1)%128))
		size = len(m)
	}
	b.ReportMetric(float64(size), "matchingSize")
}

// BenchmarkFigure34Detours regenerates the supported-edge census of
// Figures 3–4.
func BenchmarkFigure34Detours(b *testing.B) {
	g := gen.MustRandomRegular(216, 60, rng.New(6))
	var count int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sup := spanner.SupportedEdges(g, 3, 15)
		count = 0
		for _, s := range sup {
			if s {
				count++
			}
		}
	}
	b.ReportMetric(float64(count)/float64(g.M()), "supportedFrac")
}

// BenchmarkLemma2 regenerates the Lemma 2 separation.
func BenchmarkLemma2(b *testing.B) {
	var sep int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := gen.Lemma2Graph(64, 3)
		an := lowerbound.AnalyzeLemma2(inst)
		sep = an.CongestionConstrained
	}
	b.ReportMetric(float64(sep), "constrainedCong")
}

// BenchmarkTheorem1Decompose regenerates the Algorithm 2 measurement.
func BenchmarkTheorem1Decompose(b *testing.B) {
	r := rng.New(7)
	n := 256
	g := gen.MustRandomRegular(n, 16, r)
	prob := routing.RandomProblem(n, 256, r)
	rt, err := routing.ShortestPaths(g, prob)
	if err != nil {
		b.Fatal(err)
	}
	var matchings int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := routing.Decompose(n, rt)
		if err != nil {
			b.Fatal(err)
		}
		matchings = dec.NumMatchings()
	}
	b.ReportMetric(float64(matchings), "matchings")
}

// BenchmarkCorollary3Local regenerates the distributed construction.
func BenchmarkCorollary3Local(b *testing.B) {
	g := gen.MustRandomRegular(120, 24, rng.New(8))
	opts := spanner.DefaultRegularOptions(9)
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := local.DistributedRegularSpanner(g, opts)
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// benchOracle builds the standard demo spanner (512-node Δ=96 expander)
// and an oracle over it for the serving benchmarks.
func benchOracle(b *testing.B) *Oracle {
	b.Helper()
	g := gen.MustRandomRegular(512, 96, rng.New(1))
	dc, err := Build(g, Options{
		Algorithm: AlgoExpander, Seed: 1,
		Expander: ExpanderOptions{EnsureConnected: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	o, err := NewOracle(dc, OracleOptions{SampleEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkOracleDist measures single-query latency: cold = every query a
// random pair, warm = queries cycling through a small pool.
func BenchmarkOracleDist(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		o := benchOracle(b)
		r := rng.New(2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.Dist(int32(r.Intn(512)), int32(r.Intn(512))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		o := benchOracle(b)
		pool := make([]OracleQuery, 256)
		r := rng.New(3)
		for i := range pool {
			pool[i] = OracleQuery{U: int32(r.Intn(512)), V: int32(r.Intn(512))}
		}
		for _, q := range pool { // one untimed pass over the pool
			if _, err := o.Dist(q.U, q.V); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := pool[i%len(pool)]
			if _, err := o.Dist(q.U, q.V); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOracleBatch measures AnswerBatch throughput over all cores,
// random pairs (cold) vs pairs drawn from a small pool (warm); the metric
// is queries per second.
func BenchmarkOracleBatch(b *testing.B) {
	const batch = 4096
	run := func(b *testing.B, o *Oracle, qs []OracleQuery) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.AnswerBatch(qs)
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}
	b.Run("cold", func(b *testing.B) {
		o := benchOracle(b)
		r := rng.New(4)
		qs := make([]OracleQuery, batch)
		for i := range qs {
			qs[i] = OracleQuery{U: int32(r.Intn(512)), V: int32(r.Intn(512))}
		}
		run(b, o, qs)
	})
	b.Run("warm", func(b *testing.B) {
		o := benchOracle(b)
		r := rng.New(5)
		pool := make([]OracleQuery, 256)
		for i := range pool {
			pool[i] = OracleQuery{U: int32(r.Intn(512)), V: int32(r.Intn(512))}
		}
		qs := make([]OracleQuery, batch)
		for i := range qs {
			qs[i] = pool[r.Intn(len(pool))]
		}
		o.AnswerBatch(qs) // one untimed pass
		run(b, o, qs)
	})
}

// BenchmarkExperimentSuite runs every registered experiment end to end in
// quick mode — the full evaluation as a single benchmark.
func BenchmarkExperimentSuite(b *testing.B) {
	for _, id := range experiments.IDs() {
		id := id
		b.Run(id, func(b *testing.B) { benchExperiment(b, id) })
	}
}
