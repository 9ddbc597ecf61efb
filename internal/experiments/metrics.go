package experiments

import (
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/spanner"
)

// Metrics is the experiment harness's kernel-level telemetry: how many
// parallel stretch sweeps and congestion accountings ran, how many units
// (edges, pairs, paths) they covered, and the worker-pool size in use.
// All fields are registered on one obs.Registry so cmd/dcbench and the
// debug endpoint render them from a single snapshot. A nil *Metrics is
// valid and records nothing, so the harness threads it unconditionally.
type Metrics struct {
	workers          *obs.Gauge
	stretchSweeps    *obs.Counter
	stretchUnits     *obs.Counter
	congestionSweeps *obs.Counter
	congestionPaths  *obs.Counter
}

// NewMetrics registers the eval_* metric family on reg and returns the
// handle the Config threads through the measurement kernels.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{}
	m.workers = reg.Gauge("eval_workers",
		"Worker-pool size used by the evaluation kernels (0 was resolved to GOMAXPROCS).")
	m.stretchSweeps = reg.Counter("eval_stretch_sweeps",
		"Parallel stretch sweeps (edge or pair) executed.")
	m.stretchUnits = reg.Counter("eval_stretch_units",
		"Edges plus sampled pairs measured by stretch sweeps.")
	m.congestionSweeps = reg.Counter("eval_congestion_sweeps",
		"Parallel node-congestion accountings executed.")
	m.congestionPaths = reg.Counter("eval_congestion_paths",
		"Paths swept by node-congestion accountings.")
	return m
}

// setWorkers records the resolved worker-pool size.
func (m *Metrics) setWorkers(w int) {
	if m == nil {
		return
	}
	m.workers.Set(float64(w))
}

func (m *Metrics) observeStretch(rep spanner.StretchReport) {
	if m == nil {
		return
	}
	m.stretchSweeps.Inc()
	m.stretchUnits.Add(int64(rep.Checked))
}

func (m *Metrics) observeCongestion(paths int) {
	if m == nil {
		return
	}
	m.congestionSweeps.Inc()
	m.congestionPaths.Add(int64(paths))
}

// resolvedWorkers is the worker count the kernels will actually use for
// cfg.Workers (0 means all cores).
func (cfg Config) resolvedWorkers() int {
	if cfg.Workers <= 0 {
		return graph.Workers()
	}
	return cfg.Workers
}

// verifyOpts assembles the spanner kernel options for a sweep traced
// under sp (usually the experiment's own span).
func (cfg Config) verifyOpts(sp *obs.Span) spanner.VerifyOptions {
	return spanner.VerifyOptions{Workers: cfg.Workers, Trace: sp}
}

// verifyEdgeStretch runs the parallel per-edge stretch sweep with the
// config's worker pool, tracing into sp and feeding cfg.Metrics.
func (cfg Config) verifyEdgeStretch(g, h *graph.Graph, alpha int, sp *obs.Span) spanner.StretchReport {
	rep := spanner.VerifyEdgeStretchOpts(g, h, alpha, cfg.verifyOpts(sp))
	cfg.Metrics.observeStretch(rep)
	return rep
}

// verifyPairStretch runs the parallel sampled-pair stretch sweep. The
// sample is drawn from r without replacement before the sweep starts, so
// the report is identical for every cfg.Workers value at a fixed RNG
// state (see spanner.VerifyPairStretchOpts).
func (cfg Config) verifyPairStretch(g, h *graph.Graph, pairs int, r *rng.RNG, sp *obs.Span) spanner.StretchReport {
	rep := spanner.VerifyPairStretchOpts(g, h, pairs, r, cfg.verifyOpts(sp))
	cfg.Metrics.observeStretch(rep)
	return rep
}

// nodeCongestion computes C(P) on the config's worker pool.
func (cfg Config) nodeCongestion(rt *routing.Routing, n int) int {
	cfg.Metrics.observeCongestion(len(rt.Paths))
	return rt.NodeCongestionWorkers(n, cfg.Workers)
}

// nodeCongestionProfile computes the per-vertex congestion profile on the
// config's worker pool.
func (cfg Config) nodeCongestionProfile(rt *routing.Routing, n int) []int {
	cfg.Metrics.observeCongestion(len(rt.Paths))
	return rt.NodeCongestionProfileWorkers(n, cfg.Workers)
}
