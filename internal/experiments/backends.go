package experiments

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/spanner"
	"repro/internal/stats"
)

// OracleBackends surveys the serving layer's pluggable distance-oracle
// backends across instance families: for each family it runs the startup
// auto-tuner twice — once at the default 128 MiB memory budget and once
// at a deliberately tight 80 KiB budget — and tabulates every candidate's
// realized memory, declared stretch bound, and whether the tuner picked
// or skipped it. The memory and stretch columns are deterministic; the
// *picks* are timing-based (the tuner serves the fastest candidate within
// budget), so this experiment is excluded from the byte-identity
// determinism pins — on small instances the exact table wins the default
// budget essentially always, and the tight budget forces the fallback
// order the decision rule promises.
func OracleBackends(cfg Config) (*Result, error) {
	type family struct {
		name  string
		g     *graph.Graph
		h     *graph.Graph // nil: query the graph itself (alpha 1)
		alpha int
	}

	nReg, dReg := 343, 80
	mMarg, dCube := 32, 10
	if cfg.Quick {
		nReg, dReg = 216, 60
		mMarg, dCube = 16, 8
	}
	gReg := gen.MustRandomRegular(nReg, dReg, rng.New(cfg.Seed^0xbac0))
	sp, err := spanner.BuildExpander(gReg, spanner.ExpanderOptions{
		Epsilon: spanner.EpsilonForDegree(nReg, dReg), Seed: cfg.Seed + 1,
		EnsureConnected: true})
	if err != nil {
		return nil, err
	}
	families := []family{
		{"thm2-spanner", gReg, sp.H, 3},
		{"margulis", gen.Margulis(mMarg), nil, 1},
		{"hypercube", gen.Hypercube(dCube), nil, 1},
	}

	const tightBudget = int64(80) << 10
	tb := stats.NewTable("family", "n", "|E(H)|", "backend", "memKiB", "bound", "pick", "pick@80KiB")
	for _, f := range families {
		h := f.h
		if h == nil {
			h = f.g
		}
		base := oracle.Options{
			Backend: oracle.BackendAuto, Seed: cfg.Seed, Workers: 1,
			SampleEvery: -1, TunerProbes: 512,
		}
		tight := base
		tight.MemoryBudget = tightBudget
		oDef, err := oracle.NewFromGraphs(f.g, h, f.alpha, base)
		if err != nil {
			return nil, fmt.Errorf("%s default budget: %w", f.name, err)
		}
		oTight, err := oracle.NewFromGraphs(f.g, h, f.alpha, tight)
		if err != nil {
			return nil, fmt.Errorf("%s tight budget: %w", f.name, err)
		}
		defRep, tightRep := oDef.TunerReport(), oTight.TunerReport()
		tightBy := make(map[string]oracle.TunerChoice, len(tightRep.Candidates))
		for _, c := range tightRep.Candidates {
			tightBy[c.Name] = c
		}
		for _, c := range defRep.Candidates {
			tightCell := " "
			if tc, ok := tightBy[c.Name]; ok {
				switch {
				case tc.Skipped != "":
					tightCell = "skip"
				case tc.Name == tightRep.Chosen:
					tightCell = "*"
				}
			}
			defCell := " "
			if c.Name == defRep.Chosen {
				defCell = "*"
			}
			tb.AddRow(f.name, h.N(), h.M(), c.Name,
				float64(c.MemoryBytes)/1024, c.StretchBound, defCell, tightCell)
		}
	}

	body := tb.String() +
		"memKiB and bound (the declared stretch bound) are deterministic per\n" +
		"(family, seed); the pick columns are the timing-based tuner verdicts\n" +
		"(default 128MiB budget vs a tight 80KiB budget) and may vary across\n" +
		"hosts, so this experiment carries no\n" +
		"byte-identity pin. The tight budget evicts the exact table and demonstrates\n" +
		"the fallback order: sparse-hub where its bunches fit, else landmark-bibfs\n" +
		"(never skipped — it precomputes nothing, the bounded-memory floor).\n" +
		"paper: the oracle is serving machinery beyond the paper's scope, but the\n" +
		"sparse-hub backend's stretch≤3 contract is the same α=3 distance-stretch\n" +
		"regime as Theorem 2, realized by Thorup–Zwick bunches instead of spanner\n" +
		"edges; the harness (dccheck) enforces each declared bound per backend.\n"
	return &Result{ID: "oracle-backends", Title: "Distance-oracle backend survey and auto-tuner decisions", Body: body}, nil
}
