package bench

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/packetsim"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/spanner"
)

// FNV-1a 64-bit, folded over result values. Fingerprints exist to detect
// cross-worker divergence, not to survive adversaries, so a non-crypto
// hash is fine.
type digest uint64

func newDigest() digest { return 0xcbf29ce484222325 }

func (d digest) u64(x uint64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(x & 0xff)
		d *= 0x100000001b3
		x >>= 8
	}
	return d
}

func (d digest) i32s(xs []int32) digest {
	for _, x := range xs {
		d = d.u64(uint64(uint32(x)))
	}
	return d
}

func (d digest) ints(xs []int) digest {
	for _, x := range xs {
		d = d.u64(uint64(x))
	}
	return d
}

func (d digest) f64(x float64) digest { return d.u64(math.Float64bits(x)) }

// benchGraph builds the shared scenario input: a random d-regular graph in
// the Theorem 2 size class (full) or a smoke-sized one (quick).
func benchGraph(opt Options) (*graph.Graph, error) {
	n, d := 343, 80
	if opt.Quick {
		n, d = 216, 30
	}
	return gen.RandomRegular(n, d, rng.New(opt.Seed))
}

// benchSpanner samples the Theorem 2 expander spanner off the scenario
// graph; shared by the stretch, oracle, and packet scenarios.
func benchSpanner(opt Options, g *graph.Graph) (*spanner.Spanner, error) {
	return spanner.BuildExpander(g, spanner.ExpanderOptions{
		SampleProb:      0.35,
		Seed:            opt.Seed,
		EnsureConnected: true,
	})
}

var registry = []Scenario{
	{
		Name:        "parallel_bfs",
		Description: "bit-parallel multi-source BFS sweep (graph.BitParallelBFSInto) over sampled sources into a reused flat table",
		Prepare:     prepareParallelBFS,
	},
	{
		Name:        "spanner_build",
		Description: "Theorem 2 expander spanner construction (spanner.BuildExpander); build parallelism follows GOMAXPROCS, so the workers argument is ignored and speedup reads ~1",
		Prepare:     prepareSpannerBuild,
	},
	{
		Name:        "stretch_sweep",
		Description: "Table 1 edge-stretch verification kernel (spanner.VerifyEdgeStretchOpts) over every spanner edge",
		Prepare:     prepareStretchSweep,
	},
	{
		Name:        "congestion_profile",
		Description: "node-congestion accounting (routing.NodeCongestionProfileWorkers) over a random shortest-path routing",
		Prepare:     prepareCongestionProfile,
	},
	{
		Name:        "oracle_batch",
		Description: "distance-oracle batch answering (oracle.AnswerBatch) on the default landmark-bibfs backend",
		Prepare:     prepareOracleBatch,
	},
	{
		Name:        "backend_compare",
		Description: "the three oracle backends (landmark-bibfs, exact-cached, sparse-hub) answering the same batch workload side by side; per-backend wall time lands in the bench_backend_ns counters",
		Prepare:     prepareBackendCompare,
	},
	{
		Name:        "router_fanout",
		Description: "oracle batches fanned across an in-process worker fleet over the binary wire protocol (router.AnswerBatch); fleet size = workers, each worker a single-threaded replica, so speedup tracks available cores",
		Prepare:     prepareRouterFanout,
	},
	{
		Name:        "tracing_overhead",
		Description: "request-tracing cost on the oracle serving path: each iteration answers the batch workload untraced (nil ReqTrace) and fully sampled (live ReqTrace into a flight recorder); the fingerprint proves tracing never changes answers",
		Prepare:     prepareTracingOverhead,
	},
	{
		Name:        "packetsim_round",
		Description: "store-and-forward packet round (packetsim.Simulate) incl. parallel congestion lower-bound accounting",
		Prepare:     preparePacketsimRound,
	},
	{
		Name:        "churn",
		Description: "dynamic-graph churn (oracle.NewDynamic): a forward pass of edge toggles, a query batch against the mutated state, then the reverse pass restoring the initial state, closing with a verify snapshot; the fingerprint folds per-update edge counts, the mid-state answers, and the state hashes, so it proves the round trip is exact",
		Prepare:     prepareChurn,
	},
}

func prepareParallelBFS(opt Options, reg *obs.Registry) (Iter, error) {
	g, err := benchGraph(opt)
	if err != nil {
		return nil, err
	}
	k := 128
	if opt.Quick {
		k = 48
	}
	r := rng.New(opt.Seed).Split()
	sources := make([]int32, k)
	for i := range sources {
		sources[i] = int32(r.Intn(g.N()))
	}
	sweeps := reg.Counter("bench_bfs_sources", "BFS sources swept across all iterations")
	// The table is prepare-owned and Reset per iteration, so the steady
	// state allocates nothing; the fingerprint folds rows in source order,
	// the same bytes the old [][]int32 kernel produced.
	table := graph.NewFlatDist(len(sources), g.N())
	return func(workers int) (uint64, error) {
		table.Reset(len(sources), g.N())
		g.BitParallelBFSInto(sources, workers, table)
		sweeps.Add(int64(table.Rows()))
		d := newDigest()
		for i := 0; i < table.Rows(); i++ {
			d = d.i32s(table.Row(i))
		}
		return uint64(d), nil
	}, nil
}

func prepareSpannerBuild(opt Options, reg *obs.Registry) (Iter, error) {
	g, err := benchGraph(opt)
	if err != nil {
		return nil, err
	}
	builds := reg.Counter("bench_spanner_builds", "spanner constructions across all iterations")
	return func(workers int) (uint64, error) {
		sp, err := benchSpanner(opt, g)
		if err != nil {
			return 0, err
		}
		builds.Add(1)
		d := newDigest().u64(uint64(sp.H.M()))
		for _, e := range sp.H.Edges() {
			d = d.u64(uint64(uint32(e.U))<<32 | uint64(uint32(e.V)))
		}
		return uint64(d), nil
	}, nil
}

func prepareStretchSweep(opt Options, reg *obs.Registry) (Iter, error) {
	g, err := benchGraph(opt)
	if err != nil {
		return nil, err
	}
	sp, err := benchSpanner(opt, g)
	if err != nil {
		return nil, err
	}
	edges := reg.Counter("bench_stretch_edges", "edges verified across all iterations")
	return func(workers int) (uint64, error) {
		rep := spanner.VerifyEdgeStretchOpts(g, sp.H, 3, spanner.VerifyOptions{Workers: workers})
		edges.Add(int64(rep.Checked))
		d := newDigest().u64(uint64(rep.Checked)).u64(uint64(rep.Violations))
		d = d.f64(rep.MaxStretch).f64(rep.MeanStretch)
		return uint64(d), nil
	}, nil
}

func prepareCongestionProfile(opt Options, reg *obs.Registry) (Iter, error) {
	g, err := benchGraph(opt)
	if err != nil {
		return nil, err
	}
	r := rng.New(opt.Seed).Split()
	prob := routing.RandomProblem(g.N(), 4*g.N(), r)
	rt, err := routing.ShortestPaths(g, prob)
	if err != nil {
		return nil, err
	}
	paths := reg.Counter("bench_congestion_paths", "routed paths accounted across all iterations")
	return func(workers int) (uint64, error) {
		prof := rt.NodeCongestionProfileWorkers(g.N(), workers)
		paths.Add(int64(len(rt.Paths)))
		return uint64(newDigest().ints(prof)), nil
	}, nil
}

func prepareOracleBatch(opt Options, reg *obs.Registry) (Iter, error) {
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
	answered := reg.Counter("bench_oracle_queries", "oracle queries answered across all iterations")
	// The worker count is fixed at oracle construction, so build one
	// oracle per distinct count on demand.
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
		as := o.AnswerBatch(qs)
		answered.Add(int64(len(as)))
		d := newDigest()
		for _, a := range as {
			d = d.u64(uint64(uint32(a.Dist))<<32 | uint64(uint32(a.Bound)))
		}
		return uint64(d), nil
	}, nil
}

func prepareChurn(opt Options, reg *obs.Registry) (Iter, error) {
	g, err := benchGraph(opt)
	if err != nil {
		return nil, err
	}
	nTog, nq := 64, 2000
	if opt.Quick {
		nTog, nq = 24, 500
	}
	r := rng.New(opt.Seed).Split()
	pairs := make([][2]int32, nTog)
	for i := range pairs {
		u, v := int32(r.Intn(g.N())), int32(r.Intn(g.N()))
		for u == v {
			v = int32(r.Intn(g.N()))
		}
		pairs[i] = [2]int32{u, v}
	}
	qs := make([]oracle.Query, nq)
	for i := range qs {
		qs[i] = oracle.Query{U: int32(r.Intn(g.N())), V: int32(r.Intn(g.N()))}
	}
	updates := reg.Counter("bench_churn_updates", "edge updates applied across all iterations")
	queries := reg.Counter("bench_churn_queries", "mid-churn queries answered across all iterations")

	// One engine per worker count (the oracle's pool size is fixed at
	// construction). Each iteration leaves the engine exactly where it
	// started — every pair is toggled once forward and once in reverse,
	// and flips are involutions — so the engines never drift apart and
	// the fingerprint is stable across iterations and worker counts.
	// Seq is deliberately NOT folded into the fingerprint: the update
	// counter carries state across iteration boundaries, while
	// M/HM/answers/hashes are pure functions of the toggle position
	// within one iteration.
	type engine struct {
		d   *oracle.Oracle
		cur map[graph.Edge]bool
	}
	engines := make(map[int]*engine)
	return func(workers int) (uint64, error) {
		en, ok := engines[workers]
		if !ok {
			dyn, err := oracle.NewDynamic(g, oracle.DynamicOptions{
				Spanner: spanner.IncrementalOptions{Seed: opt.Seed},
				Oracle: oracle.Options{Backend: oracle.BackendLandmarkBiBFS,
					Workers: workers, Seed: opt.Seed, SampleEvery: -1},
			})
			if err != nil {
				return 0, err
			}
			cur := make(map[graph.Edge]bool, g.M())
			for _, e := range g.Edges() {
				cur[e] = true
			}
			en = &engine{d: dyn, cur: cur}
			engines[workers] = en
		}
		fp := newDigest()
		toggle := func(p [2]int32) error {
			e := graph.Edge{U: p[0], V: p[1]}
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			add := !en.cur[e]
			res, err := en.d.Update(p[0], p[1], add)
			if err != nil {
				return err
			}
			if add {
				en.cur[e] = true
			} else {
				delete(en.cur, e)
			}
			updates.Add(1)
			fp = fp.u64(uint64(res.M)).u64(uint64(res.HM))
			return nil
		}
		for _, p := range pairs {
			if err := toggle(p); err != nil {
				return 0, err
			}
		}
		as := en.d.AnswerBatch(qs)
		queries.Add(int64(len(as)))
		for _, a := range as {
			fp = fp.u64(uint64(uint32(a.Dist))<<32 | uint64(uint32(a.Bound)))
		}
		for i := len(pairs) - 1; i >= 0; i-- {
			if err := toggle(pairs[i]); err != nil {
				return 0, err
			}
		}
		info := en.d.Snapshot(true)
		if !info.Consistent {
			return 0, fmt.Errorf("churn: maintained spanner diverged from a from-scratch rebuild (seq=%d)", info.Seq)
		}
		fp = fp.u64(info.GraphHash).u64(info.SpannerHash)
		return uint64(fp), nil
	}, nil
}

func preparePacketsimRound(opt Options, reg *obs.Registry) (Iter, error) {
	g, err := benchGraph(opt)
	if err != nil {
		return nil, err
	}
	sp, err := benchSpanner(opt, g)
	if err != nil {
		return nil, err
	}
	r := rng.New(opt.Seed).Split()
	prob := routing.RandomProblem(g.N(), g.N()/2, r)
	rt, err := routing.ShortestPaths(sp.H, prob)
	if err != nil {
		return nil, err
	}
	rounds := reg.Counter("bench_packetsim_rounds", "simulated rounds across all iterations")
	return func(workers int) (uint64, error) {
		res, err := packetsim.Simulate(g.N(), rt, packetsim.Options{Workers: workers})
		if err != nil {
			return 0, err
		}
		rounds.Add(1)
		d := newDigest().u64(uint64(res.Makespan)).u64(uint64(res.Delivered))
		d = d.u64(uint64(res.MaxQueue)).u64(uint64(res.Congestion)).ints(res.Latencies)
		return uint64(d), nil
	}, nil
}
