package experiments

import (
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/spanner"
)

// verifyEdgeStretch runs the parallel per-edge stretch sweep with the
// config's worker pool, tracing into sp (usually the experiment's own
// span).
func (cfg Config) verifyEdgeStretch(g, h *graph.Graph, alpha int, sp *obs.Span) spanner.StretchReport {
	return spanner.VerifyEdgeStretchOpts(g, h, alpha, spanner.VerifyOptions{Workers: cfg.Workers, Trace: sp})
}

// verifyPairStretch runs the parallel sampled-pair stretch sweep. The
// sample is drawn from r without replacement before the sweep starts, so
// the report is identical for every cfg.Workers value at a fixed RNG
// state (see spanner.VerifyPairStretchOpts).
func (cfg Config) verifyPairStretch(g, h *graph.Graph, pairs int, r *rng.RNG, sp *obs.Span) spanner.StretchReport {
	return spanner.VerifyPairStretchOpts(g, h, pairs, r, spanner.VerifyOptions{Workers: cfg.Workers, Trace: sp})
}

// nodeCongestion computes C(P) on the config's worker pool.
func (cfg Config) nodeCongestion(rt *routing.Routing, n int) int {
	return rt.NodeCongestionWorkers(n, cfg.Workers)
}

// nodeCongestionProfile computes the per-vertex congestion profile on the
// config's worker pool.
func (cfg Config) nodeCongestionProfile(rt *routing.Routing, n int) []int {
	return rt.NodeCongestionProfileWorkers(n, cfg.Workers)
}
