package bench

import (
	"time"

	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// prepareBackendCompare races the three oracle backends on one batch
// workload over the shared scenario spanner: each iteration answers the
// same query batch through every backend and folds all answers into one
// fingerprint, so the measurement both times the backends side by side
// and proves they agree wherever they promise to (the exact table and
// the bidirectional search answer identically; the sparse backend's
// answers are deterministic, so its bounds fold in reproducibly too).
//
// Per-backend wall time accumulates in the bench_backend_ns{backend=...}
// counters — the per-backend split the BENCH JSON and the README
// decision table read — while NsPerOp times the whole three-backend
// sweep. Backend build cost is paid in prepare, not the timed loop,
// matching how a serving process amortizes it.
func prepareBackendCompare(opt Options, reg *obs.Registry) (Iter, error) {
	g, err := benchGraph(opt)
	if err != nil {
		return nil, err
	}
	sp, err := benchSpanner(opt, g)
	if err != nil {
		return nil, err
	}
	nq := 20000
	if opt.Quick {
		nq = 4000
	}
	r := rng.New(opt.Seed).Split()
	qs := make([]oracle.Query, nq)
	for i := range qs {
		qs[i] = oracle.Query{U: int32(r.Intn(g.N())), V: int32(r.Intn(g.N()))}
	}
	answered := reg.Counter("bench_backend_queries", "oracle queries answered across all backends and iterations")
	names := oracle.BackendNames()
	nanos := make(map[string]*obs.Counter, len(names))
	for _, name := range names {
		nanos[name] = reg.CounterLabeled("bench_backend_ns",
			"wall nanoseconds answering the batch, split by backend", "backend", name)
	}
	// Worker count is fixed at oracle construction, so build one oracle
	// per (backend, workers) on demand; caching is disabled so every
	// iteration answers the full batch from scratch.
	oracles := make(map[string]map[int]*oracle.Oracle, len(names))
	for _, name := range names {
		oracles[name] = make(map[int]*oracle.Oracle)
	}
	return func(workers int) (uint64, error) {
		d := newDigest()
		for _, name := range names {
			o, ok := oracles[name][workers]
			if !ok {
				var err error
				o, err = oracle.NewFromGraphs(g, sp.H, 3, oracle.Options{
					Backend:     name,
					Workers:     workers,
					Seed:        opt.Seed,
					SampleEvery: -1,
				})
				if err != nil {
					return 0, err
				}
				oracles[name][workers] = o
			}
			t0 := time.Now()
			as := o.AnswerBatch(qs)
			nanos[name].Add(time.Since(t0).Nanoseconds())
			answered.Add(int64(len(as)))
			for _, a := range as {
				d = d.u64(uint64(uint32(a.Dist))<<32 | uint64(uint32(a.Bound)))
			}
		}
		return uint64(d), nil
	}, nil
}
