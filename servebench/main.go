// The wire client arms a time.After timer per request. Under the go 1.22
// timer semantics this module's go line selects, each such timer stays
// live until it fires, 30 s later: at point_zipf's rate that is over a
// million live timers in the benchmark process. The newer semantics free a timer
// once nothing refers to it.
//go:debug asynctimerchan=0

// Command servebench is the repository's end-to-end serving benchmark. It
// generates a workload's input from the seed, builds cmd/dcserve and
// cmd/dcrouter from the checkout, starts the serving process on loopback,
// drives it in a closed loop through internal/wire clients, checks the
// answers, and prints the figures; the last line of its output is one
// JSON object. With -trace 1 it also replays fixed stream prefixes through
// each layer's public functions in-process and prints per-layer figures.
// See README.md for the workloads, metrics and measurement rules.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/spanner"
)

// Measurement rules (README.md has the measurements behind them).
const (
	setupStartsBefore = 3 // starts before the window (the last one serves it)
	setupStartsAfter  = 2 // starts after the window
	refCopies         = 2 // reference work runs on both cores of the 2-vCPU host
	// refNominal and refNominalCPU are the reference work's wall and CPU
	// time on the reference host: the end-to-end figures are scaled to a
	// host on which it takes this long (README.md, Host speed).
	refNominal    = 320 * time.Millisecond
	refNominalCPU = 600 * time.Millisecond
)

type config struct {
	root, work string
	w          workload
	seed       uint64
	window     time.Duration
	traced     bool
}

func main() {
	var c config
	name := flag.String("workload", "", "workload: point_zipf, routed_batch or churn_rw")
	seconds := flag.Int("seconds", 25, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced run, printing per-layer metrics")
	flag.StringVar(&c.root, "root", ".", "repository checkout to build and serve from")
	flag.StringVar(&c.work, "work", ".bench_build/servebench", "directory for binaries, inputs and span files")
	flag.Uint64Var(&c.seed, "seed", 1, "seed of every generated input and stream")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -workload point_zipf|routed_batch|churn_rw, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	c.w, c.window, c.traced = w, time.Duration(*seconds)*time.Second, *trace == 1
	// This process's heap is mostly streams and sample buffers allocated up
	// front; collecting less often keeps the load generator's CPU steadier.
	debug.SetGCPercent(400)
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"qps", "queries/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_us_per_query", "us"},
	{"heap_mb", "MiB"},
}

// perLayer lists the traced run's metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"graphio.read_ms", "ms"},
	{"core.build_ms", "ms"},
	{"oracle.build_ms", "ms"},
	{"oracle.dynamic_build_ms", "ms"},
	{"oracle.backend_mb", "MiB"},
	{"wire.rtt_us", "us"},
	{"oracle.dist_us", "us"},
	{"server.self_us", "us"},
	{"server.queue_us", "us"},
	{"server.backend_us", "us"},
	{"server.write_us", "us"},
	{"server.errs", "count"},
	{"oracle.cache_hit_ratio", "ratio"},
	{"oracle.bibfs_share", "ratio"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.bytes_per_query", "B"},
	{"router.batch_us", "us"},
	{"router.chunk_rtt_us", "us"},
	{"router.self_us", "us"},
	{"router.chunks_per_batch", "count"},
	{"router.retries", "count"},
	{"router.failures", "count"},
	{"oracle.batch_us_per_kq", "us"},
	{"oracle.sampler_us_per_kq", "us"},
	{"graph.dist_g_us", "us"},
	{"oracle.update_ms", "ms"},
	{"spanner.repair_us", "us"},
	{"spanner.materialize_ms", "ms"},
	{"oracle.refresh_ms", "ms"},
	{"oracle.read_idle_us", "us"},
	{"trace.overhead_p50_pct", "%"},
	{"trace.overhead_qps_pct", "%"},
}

// instance is one serving process's measured window.
type instance struct {
	win     windowResult
	heapMiB float64
	before  promSamples // /metrics after the warm-up, before the window
	after   promSamples // /metrics after the window
	verdict verdict
}

func run(c config) (*result, error) {
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(c.work, "bin")
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/dcserve", "./cmd/dcrouter")
	build.Dir, build.Stdout, build.Stderr = c.root, os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building the serving binaries: %w", err)
	}

	// Inputs, streams and the expected startup report: untimed.
	g, err := inputGraph(c.w, c.seed)
	if err != nil {
		return nil, fmt.Errorf("input graph: %w", err)
	}
	input := filepath.Join(c.work, fmt.Sprintf("input-%s.txt", c.w.name))
	if err := writeGraph(input, g); err != nil {
		return nil, err
	}
	sp := spannerSeed(c.seed)
	want := startupInfo{n: g.N(), m: g.M(), backend: c.w.backend}
	var h *graph.Graph // the served spanner, for the correctness gate
	if c.w.dynamic {
		want.hm = spanner.NewIncremental(g, spanner.IncrementalOptions{Seed: sp}).HM()
	} else {
		dc, err := staticSpanner(g, sp)
		if err != nil {
			return nil, fmt.Errorf("rebuilding H: %w", err)
		}
		h = dc.Graph()
		want.hm = h.M()
	}
	args := []string{"-in", input, "-seed", fmt.Sprint(sp), "-oracle-backend", c.w.backend,
		"-listen", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}
	exe := filepath.Join(bin, "dcserve")
	switch {
	case c.w.router:
		exe = filepath.Join(bin, "dcrouter")
		args = append(args, "-spawn", fmt.Sprint(fleetWorkers))
	case c.w.dynamic:
		args = append(args, "-dynamic")
	}
	logPath := filepath.Join(c.work, "serve-stderr.log")
	ref, err := newRefWork(refCopies)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	runtime.GC()

	// Set-up: the median of several starts. Three run back to back before
	// the window, the last of them serving it, and two after it.
	var setups []float64
	start := func(args []string) (*serving, error) {
		srv, err := startServing(exe, args, logPath)
		if err != nil {
			return nil, err
		}
		if err := checkStartup(srv.startup, want); err != nil {
			srv.stop()
			return nil, err
		}
		return srv, nil
	}
	var srv *serving
	for i := 0; i < setupStartsBefore; i++ {
		if srv != nil {
			srv.stop()
		}
		if srv, err = start(args); err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	plain, err := measure(c, srv, g, h, ref, false)
	srv.stop()
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupStartsAfter; i++ {
		if srv, err = start(args); err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
		srv.stop()
	}
	var traced *instance
	if c.traced {
		srv, err := start(append(args, "-trace-sample", "1"))
		if err != nil {
			return nil, err
		}
		traced, err = measure(c, srv, g, h, ref, true)
		srv.stop()
		if err != nil {
			return nil, err
		}
	}

	e2e := endToEndMetrics(plain, median(setups), plain.host())
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, in := range []*instance{plain, traced} {
		if in == nil {
			continue
		}
		res.Attempted += in.win.readAtt + in.win.updAtt
		res.Failed += in.win.readFail + in.win.updFail
		if in.verdict.err != nil {
			res.Correct = false
		}
	}
	printReport(c, plain, traced, setups, e2e)
	if !c.traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		return res, nil
	}

	// The replays run each layer on the input of the workload that loads
	// it: the static tier on point_zipf's, the update path on churn_rw's.
	static, dyn := g, g
	other, _ := lookupWorkload("churn_rw")
	if c.w.dynamic {
		other, _ = lookupWorkload("point_zipf")
	}
	og, err := inputGraph(other, c.seed)
	if err != nil {
		return nil, err
	}
	if c.w.dynamic {
		static = og
	} else {
		dyn = og
	}
	log := newSpanLog(traced.win.epoch, 1<<16)
	extra, err := runReplays(replayInputs{seed: c.seed, inputPath: input, static: static, dyn: dyn}, log)
	if err != nil {
		return nil, fmt.Errorf("layer replays: %w", err)
	}
	spans := mergeSpans(&spanLog{spans: traced.win.spans}, log)
	layers := layerMetrics(c.w, aggregate(log.spans), extra, plain, traced)
	if err := writeSpans(filepath.Join(c.work, fmt.Sprintf("spans-%s.csv", c.w.name)), spans); err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
		fmt.Printf("layer %-26s %14.4f %s\n", m.name, layers[m.name], m.unit)
	}
	return res, nil
}

// measure drives one serving process through warm-up and the window,
// then reads its heap and counters and runs the correctness gate.
func measure(c config, srv *serving, g, h *graph.Graph, ref *refWork, traced bool) (*instance, error) {
	n := g.N()
	// Sample buffers hold 1.5x the reads expected over the window.
	expect := func(workers int) int {
		return int(c.w.readRate * c.window.Seconds() / float64(workers) * 1.5)
	}
	conns := make([]*conn, 0, readConns)
	defer func() {
		for _, cn := range conns {
			cn.close()
		}
	}()
	for i := 0; i < readConns; i++ {
		cn, err := dialConn(srv.addr)
		if err != nil {
			return nil, err
		}
		conns = append(conns, cn)
	}

	var ws []*worker
	var chk *checked
	var tracker *edgeTracker
	var wrong error
	var churnReads []oracle.Query
	switch {
	case c.w.router:
		streams := uniformStreams(n, c.seed, "batch-stream", readConns*batchInflight, batchStreamLen*batchSize)
		chk = newChecked(len(streams) * batchSize)
		ws = batchWorkers(conns, streams, chk, c.w.warmReads, expect(len(streams)))
	case c.w.dynamic:
		// conns[0] carries the writer, conns[1] the readers.
		streams := uniformStreams(n, c.seed, "churn-read", churnInflight, churnReadLen)
		churnReads = streams[0][:checkChurnPrefix]
		tracker = newEdgeTracker(g)
		ws = distWorkers(conns[1:], streams, 0, nil, c.w.warmReads, expect(len(streams)))
		ws = append(ws, updateWorkers(conns[0], togglePairs(g, c.seed, togglePairsN), tracker, &wrong,
			c.w.warmUpdates, expect(len(streams)))...)
	default:
		streams := zipfStreams(n, c.seed, readConns*distInflight, distStreamLen)
		chk = newChecked(len(streams) * checkDistPrefix)
		ws = distWorkers(conns, streams, checkDistPrefix, chk, c.w.warmReads, expect(len(streams)))
	}

	// The heap is read after the fixed warm-up rather than after the
	// timed window, so that it does not follow the host's speed: dcrouter
	// keeps each chunk's request timer live for 30 s (README.md,
	// Measurement rules).
	in := &instance{}
	var err error
	warmUp(ws)
	if in.heapMiB, err = liveHeapBytes(srv.debug); err != nil {
		return nil, err
	}
	in.heapMiB /= 1 << 20
	if in.before, err = scrape(srv.debug); err != nil {
		return nil, err
	}
	if in.win, err = drive(ws, c.window, srv.pid(), ref, traced); err != nil {
		return nil, err
	}
	if in.after, err = scrape(srv.debug); err != nil {
		return nil, err
	}

	if wrong != nil {
		in.verdict.fail(wrong)
	}
	if c.w.dynamic {
		cl := conns[0].cur.Load()
		if cl == nil {
			in.verdict.fail(errors.New("writer connection lost"))
		} else {
			in.win.readAtt += int64(len(churnReads)) // the gate's reads count as reads
			checkChurn(cl, tracker, spannerSeed(c.seed), churnReads, &in.verdict)
		}
	} else {
		checkDists(h, chk, &in.verdict)
	}
	return in, nil
}

// host returns the host speed over the instance's window.
func (in *instance) host() hostSpeed {
	return hostSpeed{wall: interquartileMean(in.win.ref), cpu: interquartileMean(in.win.refCPU)}
}

// hostSpeed holds the run's reference-work wall and CPU time. Wall times
// are scaled by refNominal/wall, rates by its inverse, and CPU times by
// refNominalCPU/cpu: the figures the run would have shown on a host that
// runs the reference work in refNominal, using refNominalCPU of CPU time.
// Under CPU steal the two differ: steal lengthens wall times but is not
// counted in any process's CPU time.
type hostSpeed struct{ wall, cpu time.Duration }

func (h hostSpeed) time(t float64) float64 { return t * refNominal.Seconds() / h.wall.Seconds() }
func (h hostSpeed) rate(r float64) float64 { return r * h.wall.Seconds() / refNominal.Seconds() }
func (h hostSpeed) cpuTime(t float64) float64 {
	return t * refNominalCPU.Seconds() / h.cpu.Seconds()
}

// endToEndMetrics derives a window's end-to-end figures at the reference
// host speed. The zero hostSpeed gives them as measured.
func endToEndMetrics(in *instance, setup float64, h hostSpeed) map[string]float64 {
	if h == (hostSpeed{}) {
		h = hostSpeed{wall: refNominal, cpu: refNominalCPU}
	}
	f := in.win.figures()
	return map[string]float64{
		"setup_s":          h.time(setup),
		"qps":              h.rate(f.qps),
		"p50_ms":           h.time(f.p50ms),
		"p90_ms":           h.time(f.p90ms),
		"p95_ms":           h.time(f.p95ms),
		"p99_ms":           h.time(f.p99ms),
		"cpu_us_per_query": h.cpuTime(f.cpuUsPerQuery),
		"heap_mb":          in.heapMiB,
		"upd_per_s":        h.rate(f.updPerS),
		"upd_p50_ms":       h.time(f.updP50ms),
		"upd_p95_ms":       h.time(f.updP95ms),
	}
}

// layerMetrics derives the per-layer figures from the replay spans and
// the traced serving process's counters.
func layerMetrics(w workload, st map[string]spanStat, extra map[string]float64, plain, traced *instance) map[string]float64 {
	us := func(name string) float64 { return st[name].meanNs() / 1e3 }
	ms := func(name string) float64 { return st[name].meanNs() / 1e6 }
	delta := func(name string) float64 { return traced.after.sum(name) - traced.before.sum(name) }
	stageUs := func(stage string) float64 {
		n := delta("server_stage_" + stage + "_seconds_count")
		if n == 0 {
			return 0
		}
		return delta("server_stage_"+stage+"_seconds_sum") / n * 1e6
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	chunkQ := float64(batchSize / fleetWorkers)
	m := map[string]float64{
		"graphio.read_ms":          ms("graphio.ReadEdgeList"),
		"core.build_ms":            ms("core.Build"),
		"oracle.build_ms":          ms("oracle.New/landmark-bibfs"),
		"oracle.dynamic_build_ms":  ms("oracle.NewDynamic"),
		"oracle.backend_mb":        traced.after.sum("oracle_backend_memory_bytes") / (1 << 20),
		"wire.rtt_us":              us("wire.Client.Dist(inproc)"),
		"oracle.dist_us":           us("oracle.Dist"),
		"server.self_us":           st["wire.Client.Dist(inproc)"].meanSelfNs()/1e3 - us("wire.codec(dist)")/codecDistReps,
		"server.queue_us":          stageUs("queue"),
		"server.backend_us":        stageUs("backend"),
		"server.write_us":          stageUs("write"),
		"server.errs":              delta("server_errs_total"),
		"oracle.cache_hit_ratio":   ratio(delta("oracle_cache_hits_total"), delta("oracle_cache_hits_total")+delta("oracle_cache_misses_total")),
		"oracle.bibfs_share":       ratio(delta("oracle_path_bibfs_total"), delta("oracle_dist_queries_total")),
		"wire.encode_us":           us("wire.AppendFrame+AppendQueries") / replayCodec,
		"wire.decode_us":           us("wire.DecodeAnswers") / replayCodec,
		"wire.bytes_per_query":     extra["wire_frame_bytes"] / batchSize,
		"router.batch_us":          us("router.AnswerBatch"),
		"router.chunk_rtt_us":      us("wire.Client.Batch(chunk)"),
		"oracle.batch_us_per_kq":   us("oracle.AnswerBatch") * 1000 / chunkQ,
		"oracle.sampler_us_per_kq": (us("oracle.AnswerBatch") - us("oracle.AnswerBatch(nosample)")) * 1000 / chunkQ,
		"graph.dist_g_us":          us("graph.Dist(G)"),
		"oracle.update_ms":         ms("oracle.Dynamic.Update"),
		"spanner.repair_us":        us("spanner.Incremental.Insert/Delete"),
		"spanner.materialize_ms":   ms("spanner.Incremental.Spanner"),
		"oracle.read_idle_us":      us("oracle.Dynamic.Dist"),
	}
	m["router.self_us"] = m["router.batch_us"] - m["router.chunk_rtt_us"]
	m["oracle.refresh_ms"] = m["oracle.update_ms"] - m["spanner.repair_us"]/1e3 - m["spanner.materialize_ms"]
	if w.router {
		// dcrouter's replicas keep private registries: take the backend
		// size and build time from the replay's identical fleet, and the
		// router counters from the served process.
		m["oracle.backend_mb"] = extra["fleet_backend_bytes"] / (1 << 20)
		m["oracle.build_ms"] = float64(fleetWorkers) * ms("oracle.New/exact-cached")
		m["router.chunks_per_batch"] = ratio(delta("router_chunks_total"), delta("router_batches_total"))
		m["router.retries"] = delta("router_retries_total")
		m["router.failures"] = delta("router_failures_total")
	} else {
		m["router.chunks_per_batch"] = ratio(extra["router_chunks"], extra["router_batches"])
		m["router.retries"] = extra["router_retries"]
		m["router.failures"] = extra["router_failures"]
	}
	tp := endToEndMetrics(traced, 0, traced.host())
	pp := endToEndMetrics(plain, 0, plain.host())
	m["trace.overhead_p50_pct"] = 100 * (tp["p50_ms"] - pp["p50_ms"]) / pp["p50_ms"]
	m["trace.overhead_qps_pct"] = 100 * (pp["qps"] - tp["qps"]) / pp["qps"]
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
	return m
}

// printReport writes the human-readable figures before the result line.
func printReport(c config, plain, traced *instance, setups []float64, e2e map[string]float64) {
	gmp := plain.after["go_gomaxprocs"]
	fmt.Printf("servebench workload=%s seed=%d window=%v nproc=%d bench_gomaxprocs=%d server_gomaxprocs=%.0f go=%s steal=%.2f%%\n",
		c.w.name, c.seed, c.window, runtime.NumCPU(), runtime.GOMAXPROCS(0), gmp, runtime.Version(), 100*plain.win.steal)
	fmt.Printf("setup starts (s): %.4f\n", setups)
	ms := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d) / 1e6
		}
		return out
	}
	host := plain.host()
	fmt.Printf("reference work (ms): %.0f interquartile mean %.2f; host speed %.4f of the reference host's\n",
		ms(plain.win.ref), float64(host.wall)/1e6, float64(refNominal)/float64(host.wall))
	fmt.Printf("reference work CPU (ms): %.0f interquartile mean %.2f; CPU speed %.4f of the reference host's\n",
		ms(plain.win.refCPU), float64(host.cpu)/1e6, float64(refNominalCPU)/float64(host.cpu))
	for _, in := range []struct {
		label string
		in    *instance
	}{{"untraced", plain}, {"traced", traced}} {
		if in.in == nil {
			continue
		}
		w := in.in.win
		fmt.Printf("%s: reads attempted=%d failed=%d answered_in_window=%d | updates attempted=%d failed=%d applied_in_window=%d",
			in.label, w.readAtt, w.readFail, len(w.readLat), w.updAtt, w.updFail, len(w.updLat))
		if w.firstErr != nil {
			fmt.Printf(" first_error=%q", w.firstErr)
		}
		fmt.Println()
		v := in.in.verdict
		status := "ok"
		if v.err != nil {
			status = "WRONG: " + v.err.Error()
		}
		fmt.Printf("%s: correctness %s checked=%d fingerprint=%016x\n", in.label, status, v.checked, v.fingerprint)
	}
	raw := endToEndMetrics(plain, median(setups), hostSpeed{})
	names := []struct{ name, unit string }{{"p95_ms", "ms"}, {"p99_ms", "ms"}}
	if c.w.dynamic {
		names = append(names, struct{ name, unit string }{"upd_per_s", "1/s"},
			struct{ name, unit string }{"upd_p50_ms", "ms"}, struct{ name, unit string }{"upd_p95_ms", "ms"})
	}
	fmt.Printf("%-22s %16s %16s\n", "", "measured", "reference host")
	for _, m := range append(append([]struct{ name, unit string }(nil), endToEnd...), names...) {
		fmt.Printf("e2e %-18s %16.4f %16.4f %s\n", m.name, raw[m.name], e2e[m.name], m.unit)
	}
}
