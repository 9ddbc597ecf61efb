// Package oracle is the serving layer over a built DC-spanner: a
// concurrent point-to-point query engine answering approximate distance
// and routing queries on the spanner graph H while accounting realized
// stretch against the base graph G.
//
// Distance resolution is pluggable behind the Backend interface; three
// engines ship (see Options.Backend and DESIGN.md §14):
//
//   - landmark-bibfs (the default): a bidirectional BFS on H for the
//     exact-on-spanner distance, with nothing precomputed;
//   - exact-cached: a precomputed all-pairs table for small graphs —
//     O(n²) space, O(1) queries, every answer exact;
//   - sparse-hub: the two-level hub/bunch design for sparse graphs —
//     O(n^{3/2}) space at the default √n hubs, stretch bound 3.
//
// Options.Backend "auto" benchmarks the candidates on a sampled query
// mix at startup and serves the fastest one within the memory budget;
// a dynamic oracle runs no tuner and serves landmark-bibfs.
//
// Because H is an (α, β)-DC-spanner, the exact-on-H distance is within
// the certified α of the true distance on G; the oracle verifies this
// empirically by re-answering a deterministic sample of queries exactly
// on G, with the same pooled bidirectional BFS landmark-bibfs runs on
// H, and tracking the realized stretch. All structures are safe for
// concurrent use and AnswerBatch fans queries out over a worker pool;
// answers are independent of scheduling because resolution is
// deterministic.
//
// An oracle built by NewDynamic also serves a live graph: Update applies
// one edge mutation to the base graph and an incrementally maintained
// spanner (spanner.Incremental) in place. A dynamic oracle serves
// landmark-bibfs only, which searches the live spanner and precomputes
// nothing, so an update has no backend table to bring up to date. One
// RWMutex inside the Oracle guards exactly that mutable state — queries
// take it shared, Update exclusively — and a static oracle is the
// zero-update case of the same type. Reporting (Stats, BackendStats, the
// registry's closures) reads no state an update changes and takes no
// lock.
package oracle

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/spanner"
	"repro/internal/stats"
)

// Metric names the oracle registers (counters are exposed with the
// _total suffix on /metrics). One oracle per registry: a second oracle
// registering into the same registry panics on the duplicate names.
// Backend-owned families (resolution paths) carry a backend="<name>"
// label so mixed-backend fleets scraped together stay distinguishable;
// oracle-level families (queries, latency, stretch) are unlabeled.
const (
	metricDistQueries   = "oracle_dist_queries"
	metricRouteQueries  = "oracle_route_queries"
	metricPathBiBFS     = "oracle_path_bibfs"
	metricPathBulk      = "oracle_path_bulk"
	metricPathExact     = "oracle_path_exact"
	metricPathBunch     = "oracle_path_bunch"
	metricPathHub       = "oracle_path_hub"
	metricFrontierMax   = "oracle_bibfs_frontier_max"
	metricDistLatency   = "oracle_dist_latency_seconds"
	metricRouteLatency  = "oracle_route_latency_seconds"
	metricStretchN      = "oracle_stretch_samples"
	metricRealizedAlpha = "oracle_realized_alpha"
	metricMeanStretch   = "oracle_mean_stretch"
	metricMaxCongestion = "oracle_max_route_congestion"
	metricSparseHubs    = "oracle_sparse_hubs"
	metricBunchEntries  = "oracle_sparse_bunch_entries"
	metricBackendInfo   = "oracle_backend_info"
	metricBackendBound  = "oracle_backend_stretch_bound"
	metricBackendMemory = "oracle_backend_memory_bytes"

	// The update-stage histogram, registered by NewDynamic only.
	metricUpdateRepair = "oracle_update_stage_repair_seconds"
)

// Options configures New. The zero value serves the landmark-bibfs
// backend with its historical defaults, so existing callers (and the
// committed bench baselines) are unaffected by the backend layer.
type Options struct {
	// Backend selects the distance-resolution engine: one of
	// BackendLandmarkBiBFS, BackendExactCached, BackendSparseHub, or
	// BackendAuto to benchmark them at startup and serve the fastest
	// within MemoryBudget. Empty means BackendLandmarkBiBFS. NewDynamic
	// serves BackendLandmarkBiBFS under "" and BackendAuto, and refuses
	// the other two with ErrDynamicBackend.
	Backend string
	// SparseHubs is the sparse-hub backend's hub count — its space/query
	// knob: more hubs mean bigger rows but smaller bunches and tighter
	// bounds. 0 means ⌈√n⌉, the point balancing rows against bunches.
	// A dynamic oracle, which never serves sparse-hub, ignores it.
	SparseHubs int
	// Seed keys sparse-hub's hub selection; 0 inherits the spanner's build
	// seed (so oracle determinism follows spanner determinism).
	Seed uint64
	// Workers bounds AnswerBatch's worker pool; 0 means GOMAXPROCS.
	Workers int
	// SampleEvery verifies every k-th Dist query against the exact
	// distance on the base graph, found by a pooled bidirectional BFS, and
	// records the realized stretch; 0 means the default 64, negative
	// disables sampling.
	SampleEvery int
	// MemoryBudget caps the precomputed state of auto-tuned backends in
	// bytes; candidates over it are skipped. 0 means the 128 MiB
	// default; negative disables the gate. Ignored when Backend names a
	// concrete engine — an explicit choice is always honored — and by a
	// dynamic oracle, which runs no tuner.
	MemoryBudget int64
	// TunerProbes is the number of sampled queries the auto-tuner times
	// each candidate on; 0 means the default 2048. A dynamic oracle runs
	// no tuner and ignores it.
	TunerProbes int
	// Registry receives the oracle's serving metrics (query/path counters,
	// latency and frontier histograms, stretch gauges). Nil means a
	// private registry, still reachable via Oracle.Registry — passing the
	// process-wide registry is how dcserve unifies /metrics, the wire
	// stats response, and the demo summary.
	Registry *obs.Registry
}

// Query is one point-to-point distance request.
type Query struct {
	U, V int32
}

// Answer is the oracle's reply to a Query.
type Answer struct {
	U, V int32
	// Dist is the hop distance on the spanner H — exact when Exact is
	// true, the sparse backend's hub bound otherwise (within its declared
	// stretch of the true spanner distance); graph.Unreachable for
	// disconnected pairs and invalid queries.
	Dist int32
	// Bound equals Dist on every answer of every backend: the exact
	// distance, or sparse-hub's hub bound on an inexact answer. The wire
	// answer encoding still carries it.
	Bound int32
	// Exact reports whether Dist is the exact spanner distance.
	Exact bool
}

// Stats is a point-in-time snapshot of the oracle's serving metrics.
type Stats struct {
	Queries int64 // Dist queries (Route lookups are counted in Routes only)
	Routes  int64

	LatencyMean float64 // seconds, Dist queries
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64

	// Route latencies live in their own histogram so route service time
	// (distance resolution + path reconstruction) never skews the Dist
	// quantiles above.
	RouteLatencyMean float64
	RouteLatencyP50  float64
	RouteLatencyP95  float64
	RouteLatencyP99  float64

	// QPS is (Queries+Routes) per second of wall time since the serving
	// clock started — MarkServingStart resets it when traffic actually
	// begins; until then it runs from New.
	QPS float64

	// Realized-stretch accounting: dist_H / dist_G over the sampled
	// queries (the Chimani–Stutzenstein "realized stretch" viewpoint).
	StretchSamples int
	RealizedAlpha  float64 // max sampled ratio
	MeanStretch    float64 // mean sampled ratio
	CertifiedAlpha int     // 0 when the construction certifies no constant α

	// MaxCongestion is the highest per-node count of served Route paths
	// crossing a vertex (C(P, v) over the routes answered so far).
	MaxCongestion int64

	// The serving backend's name and declared stretch bound. Its
	// resolution-path counts are the backend-labeled families on the
	// registry, so a fleet mixing backends never blends them.
	Backend             string
	BackendStretchBound int
}

// Oracle answers distance and route queries over a DC-spanner through a
// pluggable resolution backend.
type Oracle struct {
	// mu guards the state an Update changes: on a dynamic oracle the
	// adjacency of g and h themselves, which inc mutates in place (the
	// landmark-bibfs backend keeps no table to go stale). Dist,
	// AnswerBatch, Route, Snapshot and HM take it shared, for as long as
	// they read a graph, and Update exclusively; on a static oracle it is
	// never taken exclusively. Reporting never takes it.
	mu    sync.RWMutex
	g     *graph.Graph // base graph G; on a dynamic oracle inc's live graph
	h     *graph.Graph // spanner H (the serving graph); on a dynamic oracle inc's live spanner
	n     int          // vertex count, fixed for the oracle's lifetime
	alpha int          // certified distance stretch; 0 = uncertified

	inc    *spanner.Incremental       // live-graph maintenance; nil on a static oracle
	sopt   spanner.IncrementalOptions // inc's options, for Snapshot's verify rebuild
	repair *stats.Histogram           // applied-update repair times; nil on a static oracle

	backend Backend
	tuner   *TunerReport // non-nil only under Backend "auto" on a static oracle
	workers int

	sampleEvery int64

	latency      *stats.Histogram
	routeLatency *stats.Histogram
	queries      atomic.Int64
	routes       atomic.Int64
	congestion   []int64                   // per-node route-path counts, atomic adds
	start        atomic.Pointer[time.Time] // serving-clock origin, see MarkServingStart

	// reg is the registry all serving metrics live in; the per-query
	// resolution-path counters are backend-owned and labeled by backend
	// name (see Backend.attachMetrics).
	reg *obs.Registry

	stretchMu  sync.Mutex
	stretchN   int
	stretchSum float64
	stretchMax float64

	routePool  sync.Pool // *routeScratch
	samplePool sync.Pool // *biScratch for the stretch sampler's search on G
}

type routeScratch struct {
	bfs    *graph.BFSScratch
	parent []int32
}

// New builds an oracle over a DC-spanner built by core.Build, inheriting
// its certified stretch and (by default) its seed.
func New(dc *core.DCSpanner, opts Options) (*Oracle, error) {
	if opts.Seed == 0 {
		opts.Seed = dc.Seed()
	}
	return NewFromGraphs(dc.Base(), dc.Graph(), dc.CertifiedAlpha(), opts)
}

// NewFromGraphs builds an oracle from an explicit base graph and spanner.
// alpha is the certified distance stretch (0 if uncertified). h must be a
// spanning subgraph of g.
func NewFromGraphs(g, h *graph.Graph, alpha int, opts Options) (*Oracle, error) {
	if g == nil || h == nil || g.N() == 0 {
		return nil, fmt.Errorf("oracle: empty graph")
	}
	if g.N() != h.N() {
		return nil, fmt.Errorf("oracle: spanner has %d vertices, base has %d", h.N(), g.N())
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = graph.Workers()
	}
	sampleEvery := int64(opts.SampleEvery)
	if sampleEvery == 0 {
		sampleEvery = 64
	}
	var (
		be    Backend
		tuner *TunerReport
		err   error
	)
	if opts.Backend == BackendAuto {
		be, tuner, err = autoTune(h, opts, workers)
	} else {
		be, err = buildBackend(opts.Backend, h, opts, workers)
	}
	if err != nil {
		return nil, err
	}
	o := &Oracle{
		g:            g,
		h:            h,
		n:            g.N(),
		alpha:        alpha,
		backend:      be,
		tuner:        tuner,
		workers:      workers,
		sampleEvery:  sampleEvery,
		latency:      stats.NewLatencyHistogram(),
		routeLatency: stats.NewLatencyHistogram(),
		congestion:   make([]int64, g.N()),
	}
	o.MarkServingStart()
	o.routePool.New = func() any {
		return &routeScratch{bfs: graph.NewBFSScratch(o.n), parent: make([]int32, o.n)}
	}
	o.samplePool.New = func() any { return newBiScratch(o.n) }
	o.registerMetrics(opts.Registry)
	return o, nil
}

// registerMetrics wires the oracle's serving metrics into reg (or a fresh
// private registry when nil). Stats snapshots and /metrics exposition
// both read through this registry, so every consumer sees the same
// numbers. The serving backend attaches its own labeled counters here;
// tuner candidates that lost are never attached.
func (o *Oracle) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o.reg = reg
	reg.CounterFunc(metricDistQueries, "Dist queries answered.", o.queries.Load)
	reg.CounterFunc(metricRouteQueries, "Route queries answered.", o.routes.Load)
	reg.GaugeFuncLabeled(metricBackendInfo,
		"Serving distance-resolution backend (info gauge: the labeled series is 1).",
		"backend", o.backend.Name(), func() float64 { return 1 })
	reg.GaugeFunc(metricBackendBound,
		"Declared worst-case stretch of the serving backend vs the exact spanner distance.",
		func() float64 { return float64(o.backend.StretchBound()) })
	reg.GaugeFunc(metricBackendMemory,
		"Estimated bytes of the serving backend's precomputed state.",
		func() float64 { return float64(o.backend.MemoryBytes()) })
	o.backend.attachMetrics(reg)
	reg.RegisterHistogram(metricDistLatency, "Dist query service time.", o.latency)
	reg.RegisterHistogram(metricRouteLatency, "Route query service time.", o.routeLatency)
	reg.GaugeFunc(metricStretchN, "Realized-stretch samples taken.", func() float64 {
		o.stretchMu.Lock()
		defer o.stretchMu.Unlock()
		return float64(o.stretchN)
	})
	reg.GaugeFunc(metricRealizedAlpha, "Maximum sampled dist_H/dist_G ratio.", func() float64 {
		o.stretchMu.Lock()
		defer o.stretchMu.Unlock()
		return o.stretchMax
	})
	reg.GaugeFunc(metricMeanStretch, "Mean sampled dist_H/dist_G ratio.", func() float64 {
		o.stretchMu.Lock()
		defer o.stretchMu.Unlock()
		if o.stretchN == 0 {
			return 0
		}
		return o.stretchSum / float64(o.stretchN)
	})
	reg.GaugeFunc(metricMaxCongestion, "Highest per-node count of served route paths.", func() float64 {
		var max int64
		for i := range o.congestion {
			if c := atomic.LoadInt64(&o.congestion[i]); c > max {
				max = c
			}
		}
		return float64(max)
	})
}

// Registry returns the registry holding the oracle's metrics — the one
// passed in Options or the private one created in its place.
func (o *Oracle) Registry() *obs.Registry { return o.reg }

// N returns the number of vertices the oracle serves — queries must have
// both endpoints in [0, N). Updates never change it.
func (o *Oracle) N() int { return o.n }

// HM returns the served spanner's edge count, the figure Snapshot
// reports as HM, read under the read lock without copying or hashing
// either graph.
func (o *Oracle) HM() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.h.M()
}

// Backend returns the name of the serving backend — the explicit
// Options.Backend choice, or the auto-tuner's pick.
func (o *Oracle) Backend() string { return o.backend.Name() }

// TunerReport returns the startup auto-tuning report, or nil when
// Options.Backend named a concrete backend or the oracle is dynamic.
func (o *Oracle) TunerReport() *TunerReport { return o.tuner }

// BackendStats reports the serving backend's declared contract and
// size.
func (o *Oracle) BackendStats() BackendStats {
	return BackendStats{
		Name:         o.backend.Name(),
		StretchBound: o.backend.StretchBound(),
		MemoryBytes:  o.backend.MemoryBytes(),
	}
}

// MarkServingStart resets the serving clock that Stats.QPS is measured
// against. New arms it at construction time, which charges the idle gap
// between precomputation and the first query to the throughput figure;
// callers that serve traffic (dcserve's demo and server paths) call this
// once when serving actually begins. Safe for concurrent use with Stats.
func (o *Oracle) MarkServingStart() {
	now := time.Now()
	o.start.Store(&now)
}

// Dist answers a single distance query. Safe for concurrent use. The
// answer's exactness and bound semantics are the serving backend's (see
// Answer and the Backend* constants).
func (o *Oracle) Dist(u, v int32) (Answer, error) {
	return o.DistTrace(u, v, nil)
}

// DistTrace is Dist with an optional request trace: the resolution path
// taken lands in the trace's path mask and the resolution itself is
// recorded as an "oracle" hop. A nil trace costs nothing beyond the nil
// checks — Dist calls through with nil.
func (o *Oracle) DistTrace(u, v int32, tr *obs.ReqTrace) (Answer, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	t0 := time.Now()
	a, path, err := o.answer(u, v)
	if err == nil {
		o.latency.Observe(time.Since(t0).Seconds())
	}
	if tr != nil {
		tr.OrPath(path)
		tr.Hop("oracle", t0, "path="+obs.PathString(path))
	}
	return a, err
}

// answer is Dist without latency accounting (shared with AnswerBatch): it
// resolves the distance and charges the query to the Dist counters and the
// stretch sampler. The second return is the obs.Path* bit the resolution
// took (0 for self/invalid queries).
func (o *Oracle) answer(u, v int32) (Answer, uint8, error) {
	ans, path, err := o.resolve(u, v)
	if err != nil {
		return ans, path, err
	}
	seq := o.queries.Add(1)
	if ans.Exact && u != v {
		o.maybeSampleStretch(seq, u, v, ans.Dist)
	}
	return ans, path, nil
}

// resolve computes the distance answer with no serving accounting — Route
// rides on it so route lookups do not inflate Stats.Queries or the Dist
// latency histogram. Validation and self-queries are handled here; valid
// u ≠ v pairs delegate to the serving backend, which reports the
// obs.Path* bit its resolution took (0 when no path ran).
func (o *Oracle) resolve(u, v int32) (Answer, uint8, error) {
	n := int32(o.n)
	if u < 0 || v < 0 || u >= n || v >= n {
		return Answer{U: u, V: v, Dist: graph.Unreachable, Bound: graph.Unreachable}, 0,
			fmt.Errorf("oracle: query (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return Answer{U: u, V: v, Exact: true}, 0, nil
	}
	a, path := o.backend.Dist(u, v)
	return a, path, nil
}

// maybeSampleStretch re-answers every sampleEvery-th query u ≠ v exactly
// on G, with a pooled bidirectional BFS (the search landmark-bibfs runs
// on H), and records the realized stretch dist_H / dist_G. The
// caller holds the read lock, so no update moves G under the search. The
// scratch is sized n, which updates never change, so the pool outlives
// every Update.
func (o *Oracle) maybeSampleStretch(seq int64, u, v, dh int32) {
	if o.sampleEvery <= 0 || seq%o.sampleEvery != 0 || dh == graph.Unreachable {
		return
	}
	sc := o.samplePool.Get().(*biScratch)
	dg := sc.distance(o.g, u, v)
	o.samplePool.Put(sc)
	if dg <= 0 {
		return
	}
	ratio := float64(dh) / float64(dg)
	o.stretchMu.Lock()
	o.stretchN++
	o.stretchSum += ratio
	if ratio > o.stretchMax {
		o.stretchMax = ratio
	}
	o.stretchMu.Unlock()
}

// Route answers a routing query: one shortest path on H realizing the
// exact spanner distance (or, for an inexact answer, a path within the
// answered bound), plus the distance answer. The path's nodes are
// added to the oracle's congestion accounting (C(P, v) over served
// routes). Returns a nil path for disconnected pairs.
//
// Routes are accounted separately from Dist queries: the distance lookup
// inside Route increments neither Stats.Queries nor the Dist latency
// histogram (so route traffic cannot double-count against a caller's own
// query totals); the full route service time lands in the route latency
// histogram instead.
func (o *Oracle) Route(u, v int32) (routing.Path, Answer, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	t0 := time.Now()
	ans, _, err := o.resolve(u, v)
	if err != nil {
		return nil, ans, err
	}
	if ans.Dist == graph.Unreachable {
		o.finishRoute(t0)
		return nil, ans, nil
	}
	rs := o.routePool.Get().(*routeScratch)
	p := rs.bfs.PathWithin(o.h, u, v, ans.Dist, rs.parent)
	o.routePool.Put(rs)
	if p == nil {
		return nil, ans, fmt.Errorf("oracle: inconsistent state: dist=%d but no path within it", ans.Dist)
	}
	for _, x := range p {
		atomic.AddInt64(&o.congestion[x], 1)
	}
	o.finishRoute(t0)
	return routing.Path(p), ans, nil
}

// finishRoute records one served route against the route counters.
func (o *Oracle) finishRoute(t0 time.Time) {
	o.routes.Add(1)
	o.routeLatency.Observe(time.Since(t0).Seconds())
}

// Stats snapshots the serving metrics. The snapshot is taken through the
// metrics registry in one pass — every atomic is read exactly once and
// all derived figures (QPS, quantiles) come from those same reads, so a
// snapshot under load is internally consistent.
func (o *Oracle) Stats() Stats {
	return o.StatsFrom(o.reg.Snapshot())
}

// StatsFrom derives the Stats view from an already-taken registry
// snapshot — the path by which a serving layer that also owns counters
// in the same registry (internal/server) renders its whole stats line
// from one capture instant.
func (o *Oracle) StatsFrom(snap obs.Snapshot) Stats {
	s := Stats{
		Queries:             snap.Counters[metricDistQueries],
		Routes:              snap.Counters[metricRouteQueries],
		CertifiedAlpha:      o.alpha,
		StretchSamples:      int(snap.Gauges[metricStretchN]),
		RealizedAlpha:       snap.Gauges[metricRealizedAlpha],
		MeanStretch:         snap.Gauges[metricMeanStretch],
		MaxCongestion:       int64(snap.Gauges[metricMaxCongestion]),
		Backend:             o.backend.Name(),
		BackendStretchBound: o.backend.StretchBound(),
	}
	lat := snap.Histograms[metricDistLatency]
	s.LatencyMean = lat.Mean()
	s.LatencyP50 = lat.Quantile(0.50)
	s.LatencyP95 = lat.Quantile(0.95)
	s.LatencyP99 = lat.Quantile(0.99)
	rl := snap.Histograms[metricRouteLatency]
	s.RouteLatencyMean = rl.Mean()
	s.RouteLatencyP50 = rl.Quantile(0.50)
	s.RouteLatencyP95 = rl.Quantile(0.95)
	s.RouteLatencyP99 = rl.Quantile(0.99)
	if el := time.Since(*o.start.Load()).Seconds(); el > 0 {
		s.QPS = float64(s.Queries+s.Routes) / el
	}
	return s
}

// String renders the snapshot as a single report line.
func (s Stats) String() string {
	return fmt.Sprintf(
		"backend=%s queries=%d routes=%d p50=%.3gs p95=%.3gs p99=%.3gs routeP50=%.3gs routeP99=%.3gs qps=%.0f realizedAlpha=%.3f (certified %d, %d samples) maxCong=%d",
		s.Backend, s.Queries, s.Routes, s.LatencyP50, s.LatencyP95, s.LatencyP99,
		s.RouteLatencyP50, s.RouteLatencyP99,
		s.QPS, s.RealizedAlpha, s.CertifiedAlpha, s.StretchSamples, s.MaxCongestion)
}
