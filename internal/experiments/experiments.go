// Package experiments implements the reproduction harness: one runnable
// experiment per table row and figure of the paper (see DESIGN.md §3 for
// the index). Each experiment builds its workload, runs the relevant
// construction, measures edge counts / distance stretch / congestion
// stretch, and renders a paper-vs-measured table.
//
// Measurement (not construction) is where the harness spends most of its
// time, so the stretch and congestion sweeps run on the worker-pool
// kernels of internal/graph and internal/routing, sized by Config.Workers.
// Rendered reports are byte-identical for every worker count at a fixed
// seed (see the Config.Workers godoc and DESIGN.md §9); internal/bench
// times the same kernels in isolation.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// Config controls experiment sizes and the measurement worker pool.
type Config struct {
	// Seed drives all randomness; equal seeds give identical reports.
	Seed uint64
	// Quick shrinks instance sizes for CI/benchmark runs.
	Quick bool
	// Trace, when non-nil, receives one span per experiment (RunAll) and
	// the construction phase spans of runners that thread it further down
	// (e.g. Table1Theorem2's expander builds). Nil disables tracing.
	Trace *obs.Span
	// Workers sizes the worker pool of the measurement kernels — the
	// multi-source BFS stretch sweeps and the node-congestion accounting.
	// 0 means all cores (GOMAXPROCS), 1 forces the serial path.
	//
	// Determinism guarantee: for a fixed Seed the rendered reports are
	// byte-identical for every Workers value. All random choices —
	// including sampled sources and pairs, which are drawn without
	// replacement — are made serially before any parallel sweep starts,
	// and every sweep writes only per-index result slots merged
	// order-independently (see DESIGN.md §9).
	Workers int
}

// Result is a rendered experiment report.
type Result struct {
	ID    string
	Title string
	Body  string // rendered tables + notes
}

func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	b.WriteString(r.Body)
	return b.String()
}

// Runner is an experiment entry point.
type Runner func(Config) (*Result, error)

// registry maps experiment ids to runners, in presentation order.
var registry = []struct {
	ID     string
	Runner Runner
}{
	{"table1-thm2", Table1Theorem2},
	{"table1-thm3", Table1Theorem3},
	{"table1-kx16", Table1KoutisXu},
	{"table1-bd5", Table1BoundedDegree},
	{"table1-thm4", Table1Theorem4},
	{"fig1-vft", Figure1VFT},
	{"fig2-matching", Figure2Matching},
	{"fig34-detours", Figure34Detours},
	{"lemma2", Lemma2Separation},
	{"thm1-decompose", Theorem1Decompose},
	{"cor3-local", Corollary3Local},
	{"ablate-detour", AblateDetour},
	{"ablate-support", AblateSupport},
	{"ablate-epsilon", AblateEpsilon},
	{"ablate-coloring", AblateColoring},
	{"packet-latency", PacketLatency},
	{"irregular", IrregularDegrees},
	{"section8-stretch", Section8Stretch},
	{"fault-tolerance", FaultTolerance},
	{"seed-variance", SeedVariance},
	{"defn2-beta", Definition2Beta},
	{"oracle-backends", OracleBackends},
}

// IDs returns the known experiment ids in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Lookup returns the runner for an id.
func Lookup(id string) (Runner, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e.Runner, true
		}
	}
	return nil, false
}

// RunAll executes every experiment, returning results in order and the
// first error encountered per experiment inline in its body (so a single
// failing experiment does not hide the others). With cfg.Trace set, each
// experiment runs under its own child span (named by its id) so the
// runner's phase tree shows where a slow sweep spends its time.
func RunAll(cfg Config) []*Result {
	out := make([]*Result, 0, len(registry))
	for _, e := range registry {
		ecfg := cfg
		esp := cfg.Trace.Start(e.ID)
		ecfg.Trace = esp
		res, err := e.Runner(ecfg)
		if err != nil {
			res = &Result{ID: e.ID, Title: "FAILED", Body: "error: " + err.Error() + "\n"}
			esp.SetKV("failed", err.Error())
		}
		esp.End()
		out = append(out, res)
	}
	return out
}
