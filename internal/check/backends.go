package check

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// backendConfig is one (backend, knob) point of the backend sweep.
type backendConfig struct {
	label string
	opts  oracle.Options
}

// backendSweep enumerates the configurations checkBackends runs: every
// backend at its defaults, plus the knob extreme that changes resolution
// behavior — the sparse backend at one hub (maximal bunches). A
// non-empty opts.Backend restricts the sweep to that backend's
// configurations.
func backendSweep(opts Options, oSeed uint64) []backendConfig {
	base := func(name string) oracle.Options {
		return oracle.Options{Backend: name, Seed: oSeed, Workers: 1, SampleEvery: -1}
	}
	cfgs := []backendConfig{
		{label: oracle.BackendLandmarkBiBFS, opts: base(oracle.BackendLandmarkBiBFS)},
		{label: oracle.BackendExactCached, opts: base(oracle.BackendExactCached)},
		{label: oracle.BackendSparseHub, opts: base(oracle.BackendSparseHub)},
		{label: oracle.BackendSparseHub + "/hubs=1",
			opts: func() oracle.Options {
				o := base(oracle.BackendSparseHub)
				o.SparseHubs = 1
				return o
			}()},
	}
	if opts.Backend == "" {
		return cfgs
	}
	kept := cfgs[:0]
	for _, c := range cfgs {
		if c.opts.Backend == opts.Backend {
			kept = append(kept, c)
		}
	}
	return kept
}

// checkBackendAnswer asserts the backend-generic answer contract against
// the exact distance matrix: unreachable pairs answered unreachable,
// exact claims exactly right, every answer admissible (never below the
// true distance) and within the backend's declared stretch bound of it,
// and every answer's Bound equal to its Dist.
func checkBackendAnswer(ck *checker, a oracle.Answer, distH *graph.TriDist, stretchBound int) {
	u, v := a.U, a.V
	if u == v {
		ck.assert(a.Dist == 0 && a.Bound == 0 && a.Exact,
			"(%d,%d): self-query got dist=%d bound=%d exact=%v", u, v, a.Dist, a.Bound, a.Exact)
		return
	}
	ref := distH.At(u, v)
	if ref == graph.Unreachable {
		ck.assert(a.Dist == graph.Unreachable && a.Bound == graph.Unreachable,
			"(%d,%d): answered dist=%d bound=%d on a disconnected pair", u, v, a.Dist, a.Bound)
		return
	}
	if !ck.assert(a.Dist != graph.Unreachable,
		"(%d,%d): answered unreachable, true distance is %d", u, v, ref) {
		return
	}
	ck.assert(a.Dist >= ref, "(%d,%d): answered %d below the true distance %d", u, v, a.Dist, ref)
	if a.Exact {
		ck.assert(a.Dist == ref, "(%d,%d): claims exact %d, true distance is %d", u, v, a.Dist, ref)
	} else {
		// Only a backend with an approximation ratio (declared bound
		// other than exactly 1) may answer inexactly.
		ck.assert(stretchBound != 1,
			"(%d,%d): inexact answer %d from a backend declaring exactness (ref %d)", u, v, a.Dist, ref)
	}
	ck.assert(int64(a.Dist) <= int64(stretchBound)*int64(ref),
		"(%d,%d): answered %d, over the declared %d× bound of the true distance %d",
		u, v, a.Dist, stretchBound, ref)
	ck.assert(a.Bound >= ref, "(%d,%d): admissible bound %d below the true distance %d", u, v, a.Bound, ref)
	ck.assert(a.Bound == a.Dist, "(%d,%d): bound %d differs from the answer %d", u, v, a.Bound, a.Dist)
}

// checkBackends sweeps every oracle backend over one spanner variant
// against the exact all-pairs matrix: the declared stretch bound must
// hold on every query, Exact claims must be exactly right, and
// AnswerBatch must equal the sequential answers at every worker count.
// This is the backend-generic complement to checkOracle, which pins
// landmark-bibfs's exact answers and both of its paths.
func checkBackends(rep *Report, family string, v variant, distH *graph.TriDist, opts Options, r *rng.RNG) {
	n := v.h.N()
	qn := 120
	if !opts.Quick {
		qn = 300
	}
	qs := sampleQueries(n, qn, r)
	batch := append(append([]oracle.Query(nil), qs...),
		oracle.Query{U: -1, V: 0}, oracle.Query{U: 0, V: int32(n)})
	oSeed := r.Uint64() | 1

	for _, cfg := range backendSweep(opts, oSeed) {
		ck := &checker{rep: rep, family: family,
			check: fmt.Sprintf("backend-dist/%s/%s", v.name, cfg.label), seed: opts.Seed}
		o, err := oracle.NewFromGraphs(v.h, v.h, alpha, cfg.opts)
		if !ck.assert(err == nil, "NewFromGraphs: %v", err) {
			continue
		}
		bs := o.BackendStats()
		ck.assert(bs.Name == cfg.opts.Backend, "serving backend %q, asked for %q", bs.Name, cfg.opts.Backend)
		for _, q := range qs {
			a, err := o.Dist(q.U, q.V)
			if !ck.assert(err == nil, "Dist(%d,%d): %v", q.U, q.V, err) {
				continue
			}
			checkBackendAnswer(ck, a, distH, bs.StretchBound)
		}

		// AnswerBatch: equal to the sequential answers above, sentinel
		// answers for invalid queries, identical at every worker count.
		var first []oracle.Answer
		for _, w := range workerCounts {
			wopts := cfg.opts
			wopts.Workers = w
			ob, err := oracle.NewFromGraphs(v.h, v.h, alpha, wopts)
			bck := &checker{rep: rep, family: family,
				check: fmt.Sprintf("backend-batch/%s/%s/workers=%d", v.name, cfg.label, w), seed: opts.Seed}
			if !bck.assert(err == nil, "NewFromGraphs: %v", err) {
				continue
			}
			out := ob.AnswerBatch(batch)
			if !bck.assert(len(out) == len(batch), "got %d answers for %d queries", len(out), len(batch)) {
				continue
			}
			for i, a := range out {
				q := batch[i]
				if q.U < 0 || q.V < 0 || int(q.U) >= n || int(q.V) >= n {
					bck.assert(a.Dist == graph.Unreachable && a.Bound == graph.Unreachable && !a.Exact,
						"invalid query (%d,%d): got dist=%d bound=%d exact=%v", q.U, q.V, a.Dist, a.Bound, a.Exact)
					continue
				}
				checkBackendAnswer(bck, a, distH, bs.StretchBound)
			}
			if first == nil {
				first = out
				continue
			}
			for i := range out {
				if !bck.assert(out[i] == first[i],
					"answer %d differs between workers=%d and workers=%d: %+v vs %+v",
					i, w, workerCounts[0], out[i], first[i]) {
					break
				}
			}
		}
	}
}
