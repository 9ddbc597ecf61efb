package bench

import (
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
)

// prepareRouterFanout measures the fleet-serving stack end to end: the
// same batch workload as oracle_batch, but answered through a Router
// fanning chunks across an in-process worker fleet over the binary wire
// protocol. The workers argument sets the fleet size — each worker runs
// a single-threaded oracle replica with caching disabled — so the
// parallelism measured is the router's fan-out, and the speedup over the
// serial (one-worker) run tracks the host's available cores. The
// fingerprint is computed exactly like oracle_batch's, which makes the
// determinism probe a routed-vs-fleet-size differential: every fleet
// size must merge chunks back into the identical answer sequence.
func prepareRouterFanout(opt Options, reg *obs.Registry) (Iter, error) {
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
	answered := reg.Counter("bench_router_queries", "queries answered through the router across all iterations")

	// Worker oracles are replicas by construction: same graphs, same
	// seed, Workers=1 (the fleet is the parallelism under test). Private
	// registries — nil — because replicas would collide on metric names.
	newOracle := func(i int) (*oracle.Oracle, error) {
		return oracle.NewFromGraphs(g, sp.H, 3, oracle.Options{
			Workers: 1,
			Seed:    opt.Seed,
		})
	}

	// Fleet size is fixed at startup, so boot one fleet+router per
	// distinct worker count on demand (the harness probes workers=1 for
	// determinism plus the measured count). Listeners live until process
	// exit; dcbench is short-lived.
	type fanout struct {
		fleet *router.LocalFleet
		rt    *router.Router
	}
	fleets := make(map[int]*fanout)
	return func(workers int) (uint64, error) {
		fo, ok := fleets[workers]
		if !ok {
			fleet, err := router.StartLocalFleet(workers, newOracle, server.Config{})
			if err != nil {
				return 0, err
			}
			rt, err := router.New(router.Options{
				Workers:        fleet.Addrs(),
				HealthInterval: -1, // no background pings during timing
			})
			if err != nil {
				fleet.Close()
				return 0, err
			}
			fo = &fanout{fleet: fleet, rt: rt}
			fleets[workers] = fo
		}
		as, err := fo.rt.AnswerBatch(qs)
		if err != nil {
			return 0, err
		}
		answered.Add(int64(len(as)))
		d := newDigest()
		for _, a := range as {
			d = d.u64(uint64(uint32(a.Dist))<<32 | uint64(uint32(a.Bound)))
		}
		return uint64(d), nil
	}, nil
}
