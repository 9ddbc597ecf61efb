package bench

import (
	"time"

	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// prepareTracingOverhead times the request-tracing plumbing on the
// oracle's serving path. Each iteration answers the same batch workload
// twice through one oracle: once untraced (a nil ReqTrace — the
// production default, paying only the nil checks) and once fully sampled
// (a live ReqTrace accumulating hops and path bits, finished into a
// flight recorder — the per-request worst case). The scenario's ns/op is
// the sum of the two arms, so a cost regression in either arm moves the
// number and trips `dcbench -compare`; the unsampled arm's tax relative
// to oracle_batch is the cost of threading trace plumbing at all.
//
// The fingerprint folds both answer sequences, which doubles as the
// proof that tracing never changes an answer: if the sampled arm ever
// diverged from the untraced one, the fingerprint would differ from the
// committed baseline.
func prepareTracingOverhead(opt Options, reg *obs.Registry) (Iter, error) {
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
	answered := reg.Counter("bench_tracing_queries", "queries answered across both arms and all iterations")
	sampled := reg.Counter("bench_tracing_sampled", "sampled-arm requests recorded into the flight recorder")
	flight := obs.NewFlightRecorder(0, 0, 0)

	// One oracle per distinct worker count, as in oracle_batch: caching
	// disabled so both arms answer the full batch from scratch.
	oracles := make(map[int]*oracle.Oracle)
	return func(workers int) (uint64, error) {
		o, ok := oracles[workers]
		if !ok {
			var err error
			o, err = oracle.NewFromGraphs(g, sp.H, 3, oracle.Options{
				Workers: workers,
				Seed:    opt.Seed,
			})
			if err != nil {
				return 0, err
			}
			oracles[workers] = o
		}
		plain := o.AnswerBatchTrace(qs, nil) // untraced arm
		tr := obs.NewReqTrace(0, time.Now()) // sampled arm
		tr.SetVerb("batch", "bench")
		traced := o.AnswerBatchTrace(qs, tr)
		tr.Finish(flight, "")
		sampled.Add(1)
		answered.Add(int64(len(plain) + len(traced)))
		d := newDigest()
		for _, a := range plain {
			d = d.u64(uint64(uint32(a.Dist))<<32 | uint64(uint32(a.Bound)))
		}
		for _, a := range traced {
			d = d.u64(uint64(uint32(a.Dist))<<32 | uint64(uint32(a.Bound)))
		}
		return uint64(d), nil
	}, nil
}
