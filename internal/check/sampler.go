package check

import (
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// samplerEvery is the realized-stretch sampling period of the sampler
// arm's oracles: small, so a short stream yields many samples.
const samplerEvery = 3

// checkSampler pins the oracle's realized-stretch sampler. Oracles built
// over (g, v.h) with SampleEvery samplerEvery answer one fixed stream
// through each serving arm that answers exactly — Dist, the per-query
// AnswerBatch pool at eight workers, the landmark backend's bulk
// multi-source arm and the exact-cached table — and each must report the
// StretchSamples, RealizedAlpha and MeanStretch that FoldSampledStretch
// computes from the exact matrices of G and H. Every arm is traced, so
// the check also asserts that the arm it names is the one that served.
// A non-empty opts.Backend keeps only that backend's arms.
func checkSampler(rep *Report, family string, g *graph.Graph, v variant, distG, distH *graph.TriDist, opts Options, r *rng.RNG) {
	n := g.N()
	qn := 240
	if !opts.Quick {
		qn = 600
	}
	// A few sources shared by the whole stream, so the bulk arm's
	// source-sharing gate admits it; a self query and two out-of-range
	// queries up front shift the sequence the sampler counts.
	srcs := make([]int32, 8)
	for i := range srcs {
		srcs[i] = int32(r.Intn(n))
	}
	qs := []oracle.Query{{U: 0, V: 0}, {U: -1, V: 0}, {U: 0, V: int32(n)}}
	for i := 0; i < qn; i++ {
		qs = append(qs, oracle.Query{U: srcs[r.Intn(len(srcs))], V: int32(r.Intn(n))})
	}
	want := FoldSampledStretch(distG, distH, n, qs, samplerEvery)
	oSeed := r.Uint64() | 1

	arms := []struct {
		name, backend string
		workers       int
		chunk         int // AnswerBatch chunk size; 0 answers through Dist
		path          uint8
	}{
		{"landmark-dist", oracle.BackendLandmarkBiBFS, 1, 0, obs.PathBiBFS},
		// Chunks below the bulk arm's minimum batch stay on the per-query
		// pool, which settles its samples in batch order at any worker count.
		{"landmark-perquery", oracle.BackendLandmarkBiBFS, 8, 64, obs.PathBiBFS},
		{"landmark-bulk", oracle.BackendLandmarkBiBFS, 2, len(qs), obs.PathBulk},
		{"exact-table", oracle.BackendExactCached, 2, len(qs), obs.PathExact},
	}
	for _, arm := range arms {
		if opts.Backend != "" && opts.Backend != arm.backend {
			continue
		}
		ck := &checker{rep: rep, family: family, check: "sampler/" + v.name + "/" + arm.name, seed: opts.Seed}
		o, err := oracle.NewFromGraphs(g, v.h, alpha, oracle.Options{
			Backend: arm.backend, Seed: oSeed, Workers: arm.workers, SampleEvery: samplerEvery,
		})
		if !ck.assert(err == nil, "NewFromGraphs: %v", err) {
			continue
		}
		tr := obs.NewReqTrace(1, time.Now())
		if arm.chunk == 0 {
			for _, q := range qs {
				o.DistTrace(q.U, q.V, tr) // out-of-range queries error, as intended
			}
		}
		for lo := 0; arm.chunk > 0 && lo < len(qs); lo += arm.chunk {
			o.AnswerBatchTrace(qs[lo:min(lo+arm.chunk, len(qs))], tr)
		}
		ck.assert(tr.Path() == arm.path, "served by path %s, want %s",
			obs.PathString(tr.Path()), obs.PathString(arm.path))
		s := o.Stats()
		got := SampledStretch{Samples: s.StretchSamples, Max: s.RealizedAlpha, Mean: s.MeanStretch}
		ck.assert(got == want, "sampler reports %+v, reference %+v", got, want)
	}
}
