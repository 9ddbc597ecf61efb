package check

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
)

// runRouterDifferential gates the fleet tier: a batch routed through N
// in-process workers over the binary wire protocol must come back
// byte-identical (struct equality, sentinel answers included) to the same
// batch answered by a single-process oracle.AnswerBatch. The round trip
// covers the whole serving stack — frame encode/decode on both sides,
// chunking, fan-out, merge order — so any divergence anywhere in it
// surfaces here as a differential, not as a wrong answer in production.
func runRouterDifferential(rep *Report, opts Options) {
	r := rng.New(opts.Seed ^ 0x40075e7f1ee7)
	n := 96
	deg := 16
	qn := 300
	if opts.Quick {
		n, deg, qn = 64, 12, 120
	}
	g := gen.MustRandomRegular(n, deg, r.Split())
	oSeed := r.Uint64() | 1

	newOracle := func(i int) (*oracle.Oracle, error) {
		// Same graph, same seed, per-worker instance: replicas by
		// construction, each with its own (nil) registry. A forced
		// opts.Backend rides through so the whole wire round trip is
		// exercised per backend.
		return oracle.NewFromGraphs(g, g, alpha, oracle.Options{
			Backend: opts.Backend, Seed: oSeed, Workers: 1, SampleEvery: -1,
		})
	}

	ref, err := newOracle(-1)
	{
		ck := &checker{rep: rep, family: "", check: "router/reference", seed: opts.Seed}
		if !ck.assert(err == nil, "reference oracle: %v", err) {
			return
		}
	}

	qs := sampleQueries(n, qn, r)
	// Invalid queries ride along: the routed path must preserve the
	// sentinel-per-index semantics, not reject or reorder.
	qs = append(qs, oracle.Query{U: -1, V: 0}, oracle.Query{U: 0, V: int32(n)}, oracle.Query{U: 1 << 30, V: -7})

	fleetSizes := []int{2, 3}
	if opts.Quick {
		fleetSizes = []int{2}
	}
	for _, workers := range fleetSizes {
		ck := &checker{rep: rep, family: "",
			check: fmt.Sprintf("router/fleet=%d", workers), seed: opts.Seed}

		fleet, err := router.StartLocalFleet(workers, newOracle, server.Config{})
		if !ck.assert(err == nil, "StartLocalFleet: %v", err) {
			continue
		}
		rt, err := router.New(router.Options{
			Workers:        fleet.Addrs(),
			HealthInterval: -1, // no background traffic during a differential
		})
		if !ck.assert(err == nil, "router.New: %v", err) {
			fleet.Close()
			continue
		}
		ck.assert(rt.N() == n, "router N = %d, fleet serves %d", rt.N(), n)

		// Batch sizes around the chunking edges: single chunk, one chunk
		// per worker, and remainder-heavy.
		for _, size := range []int{1, workers, len(qs)} {
			sub := qs[:size]
			got, err := rt.AnswerBatch(sub)
			if !ck.assert(err == nil, "AnswerBatch(%d): %v", size, err) {
				continue
			}
			want := ref.AnswerBatch(sub)
			if !ck.assert(len(got) == len(want), "AnswerBatch(%d): %d answers, want %d", size, len(got), len(want)) {
				continue
			}
			for i := range want {
				if !ck.assert(got[i] == want[i],
					"batch size %d, answer %d for (%d,%d): routed %+v, single-process %+v",
					size, i, sub[i].U, sub[i].V, got[i], want[i]) {
					break
				}
			}
		}

		// Single-query path.
		for _, q := range qs[:8] {
			if q.U < 0 || q.V < 0 || int(q.U) >= n || int(q.V) >= n {
				continue
			}
			got, err := rt.Dist(q.U, q.V)
			if !ck.assert(err == nil, "Dist(%d,%d): %v", q.U, q.V, err) {
				continue
			}
			want, err := ref.Dist(q.U, q.V)
			if !ck.assert(err == nil, "reference Dist(%d,%d): %v", q.U, q.V, err) {
				continue
			}
			ck.assert(got == want, "Dist(%d,%d): routed %+v, single-process %+v", q.U, q.V, got, want)
		}

		rt.Close()
		fleet.Close()
	}
}
