package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/spanner"
)

func TestQuantileIsExactOrderStatistic(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.01, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {0.991, 100}, {1, 100}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %d", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("no samples: %d", got)
	}
	if got := sortedCopy([]int64{5, 1}, []int64{3}); !reflect.DeepEqual(got, []int64{1, 3, 5}) {
		t.Errorf("sortedCopy = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := interquartileMean([]time.Duration{50, 1, 9, 3, 7, 2, 5, 10}); got != 6 {
		t.Errorf("interquartileMean = %v, want 6 (mean of 3, 5, 7, 9)", got)
	}
	if got := interquartileMean([]time.Duration{6}); got != 6 {
		t.Errorf("interquartileMean of one = %v", got)
	}
}

// TestHostSpeedScaling checks that where the reference work takes twice
// the reference host's wall time and four times its CPU time, times
// halve, rates double and CPU times quarter, and that the zero hostSpeed
// leaves the figures as measured.
func TestHostSpeedScaling(t *testing.T) {
	in := &instance{heapMiB: 10, win: windowResult{dur: 2 * time.Second, cpu: time.Second, queries: 1000,
		readLat: []int64{1e6, 2e6, 3e6, 4e6}}}
	raw := endToEndMetrics(in, 0.5, hostSpeed{})
	slow := endToEndMetrics(in, 0.5, hostSpeed{wall: 2 * refNominal, cpu: 4 * refNominalCPU})
	if raw["qps"] != 500 || raw["p50_ms"] != 2 || raw["setup_s"] != 0.5 || raw["cpu_us_per_query"] != 1000 {
		t.Errorf("as measured: %v", raw)
	}
	for name, want := range map[string]float64{"qps": 1000, "p50_ms": 1, "setup_s": 0.25, "cpu_us_per_query": 250, "heap_mb": 10} {
		if got := slow[name]; got != want {
			t.Errorf("%s at reference speed = %v, want %v", name, got, want)
		}
	}
}

// TestRefWorkRuns checks that the reference work runs, each copy on data
// of its own.
func TestRefWorkRuns(t *testing.T) {
	r, err := newRefWork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wall, cpu, err := r.Run()
	if err != nil || wall <= 0 || cpu <= 0 {
		t.Fatalf("Run = %v, %v, %v", wall, cpu, err)
	}
	if r.copies[0].sink == r.copies[1].sink {
		t.Error("the copies worked on the same data")
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (dc serve (x)) S 1 4242 4242 0 -1 4194560 500 0 0 0 1234 567 0 0 20 0 9 0 100 1000 200\n"
	u, s, err := parseProcStat([]byte(line))
	if err != nil || u != 1234 || s != 567 {
		t.Fatalf("parseProcStat = %d, %d, %v; want 1234, 567", u, s, err)
	}
	for _, bad := range []string{"4242 no parens 1 2 3", "4242 (x) S 1 2", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 u 12 13"} {
		if _, _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
	if _, err := processCPU(os.Getpid()); err != nil {
		t.Fatalf("own process: %v", err)
	}
}

func TestParseCPULineAndSteal(t *testing.T) {
	a, err := parseCPULine("cpu  100 5 50 800 10 0 5 30 7 0")
	if err != nil || a.total != 1000 || a.steal != 30 {
		t.Fatalf("parseCPULine = %+v, %v", a, err)
	}
	b := cpuTimes{total: 1200, steal: 50}
	if got := stealShare(a, b); got != 0.1 {
		t.Errorf("stealShare = %v, want 0.1", got)
	}
	if _, err := parseCPULine("intr 1 2 3"); err == nil {
		t.Error("accepted a non-cpu line")
	}
}

func TestParseProm(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nserver_errs_total 3\n" +
		"oracle_cache_hits_total{backend=\"landmark-bibfs\"} 1.5e+06\ngo_heap_alloc_bytes 2.4e+07\n"
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if p.sum("server_errs_total") != 3 || p.sum("oracle_cache_hits_total") != 1.5e6 || p["go_heap_alloc_bytes"] != 2.4e7 {
		t.Errorf("parsed %v", p)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("accepted a line without a value")
	}
}

func TestParseStartup(t *testing.T) {
	serve := []string{
		"debug listening on 127.0.0.1:1",
		"G: n=4096 m=614400 maxDeg=300 connected=true",
		"H (expander): m=523860 (85.3% of G), certified alpha=3",
		"oracle: backend=landmark-bibfs (stretch-bound=1, 1792.1 KiB, 16 landmarks) ready in 60ms",
	}
	if err := checkStartup(serve, startupInfo{4096, 614400, 523860, "landmark-bibfs"}); err != nil {
		t.Error(err)
	}
	if err := checkStartup(serve, startupInfo{4096, 614400, 523860, "exact-cached"}); err == nil {
		t.Error("wrong backend accepted")
	}
	fleet := []string{
		"G: n=4096 m=614400 maxDeg=300 connected=true",
		"H (expander): m=523860, certified alpha=3",
		"worker oracle backend: exact-cached",
	}
	if err := checkStartup(fleet, startupInfo{4096, 614400, 523860, "exact-cached"}); err != nil {
		t.Error(err)
	}
	dyn := []string{
		"G: n=8192 m=131072 maxDeg=32 connected=true",
		"H (incremental-cluster3, dynamic): m=60000 (45.8% of G), certified alpha=3",
		"oracle: backend=landmark-bibfs (stretch-bound=1, 1.0 KiB, 16 landmarks) ready in 1ms",
	}
	if err := checkStartup(dyn, startupInfo{8192, 131072, 60000, "landmark-bibfs"}); err != nil {
		t.Error(err)
	}
	if err := checkStartup(dyn[1:], startupInfo{8192, 131072, 60000, "landmark-bibfs"}); err == nil {
		t.Error("missing G line accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 50, parent: 0},  // overlaps a: counted once
		{name: "c", start: 90, end: 120, parent: 0}, // clipped to the parent
		{name: "a1", start: 15, end: 20, parent: 1},
	}
	if got, want := selfTimes(spans), []int64{100 - 40 - 10, 25, 20, 30, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	l1 := &spanLog{spans: []span{{name: "x", parent: -1}, {name: "y", parent: 0}}}
	l2 := &spanLog{spans: []span{{name: "z", parent: -1}, {name: "w", parent: 0}}}
	if got := mergeSpans(l1, nil, l2); got[3].parent != 2 || got[1].parent != 0 {
		t.Errorf("mergeSpans parents = %d, %d", got[1].parent, got[3].parent)
	}
}

// graphBytes generates a workload-shaped input and returns its edge list.
func graphBytes(t *testing.T, w workload, seed uint64) []byte {
	t.Helper()
	g, err := inputGraph(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := writeGraph(path, g); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsAndStreamsArePerSeedDeterministic(t *testing.T) {
	churn, _ := lookupWorkload("churn_rw")
	if a, b := graphBytes(t, churn, 7), graphBytes(t, churn, 7); !bytes.Equal(a, b) {
		t.Error("same seed, different input bytes")
	} else if c := graphBytes(t, churn, 8); bytes.Equal(a, c) {
		t.Error("different seeds, same input bytes")
	}
	streams := map[string]func(seed uint64) any{
		"zipf":    func(s uint64) any { return zipfStreams(4096, s, 3, 500) },
		"uniform": func(s uint64) any { return uniformStreams(4096, s, "batch-stream", 2, 1024) },
		"toggles": func(s uint64) any {
			g := gen.MustRandomRegular(256, 8, rng.New(1))
			return togglePairs(g, s, 200)
		},
	}
	for name, mk := range streams {
		if !reflect.DeepEqual(mk(7), mk(7)) {
			t.Errorf("%s: same seed, different stream", name)
		}
		if reflect.DeepEqual(mk(7), mk(8)) {
			t.Errorf("%s: different seeds, same stream", name)
		}
	}
	for _, st := range zipfStreams(64, 3, 2, 1000) {
		for _, q := range st {
			if q.U == q.V || q.U < 0 || q.V < 0 || q.U >= 64 || q.V >= 64 {
				t.Fatalf("bad query %+v", q)
			}
		}
	}
}

// TestServeEveryWorkload runs every workload as a short traced run against
// binaries built from the repository: the gate must pass with no failed
// operation, and every per-layer metric must be reported. It takes about half a minute on two
// vCPUs; -short skips it.
func TestServeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the serving binaries and serves every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(config{root: "..", work: t.TempDir(), w: w, seed: 3, window: time.Second, traced: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("%s not reported", m.name)
				}
			}
			// On routed_batch this comes from the served dcrouter.
			if got := res.Metrics["router.chunks_per_batch"].Value; got != fleetWorkers {
				t.Errorf("router.chunks_per_batch = %v, want %d", got, fleetWorkers)
			}
		})
	}
}

// TestEdgeSetHashMatchesSnapshot checks the benchmark's edge tracking and
// hash against what oracle.Dynamic reports after the same toggles.
func TestEdgeSetHashMatchesSnapshot(t *testing.T) {
	g := gen.MustRandomRegular(256, 8, rng.New(3))
	const seed = 11
	d, err := oracle.NewDynamic(g, oracle.DynamicOptions{
		Spanner: spanner.IncrementalOptions{Seed: seed},
		Oracle:  oracle.Options{Backend: oracle.BackendLandmarkBiBFS},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := newEdgeTracker(g)
	pairs := togglePairs(g, 5, 40)
	for _, e := range append(pairs, pairs[:10]...) {
		add := !tr.has(e)
		res, err := d.Update(e.U, e.V, add)
		if err != nil || !res.Applied {
			t.Fatalf("toggle %v add=%v: applied=%v err=%v", e, add, res.Applied, err)
		}
		tr.toggle(e, add)
	}
	snap := d.Snapshot(false)
	edges := tr.edges()
	if snap.M != len(edges) || snap.M != tr.m || snap.GraphHash != edgeSetHash(edges) {
		t.Fatalf("snapshot m=%d ghash=%x; tracked m=%d (%d listed) ghash=%x",
			snap.M, snap.GraphHash, tr.m, len(edges), edgeSetHash(edges))
	}
	h := spanner.NewIncremental(graph.FromEdges(g.N(), edges), spanner.IncrementalOptions{Seed: seed}).Spanner().H
	if snap.HM != h.M() || snap.SpannerHash != edgeSetHash(h.Edges()) {
		t.Fatalf("snapshot hm=%d hhash=%x; rebuilt hm=%d hhash=%x", snap.HM, snap.SpannerHash, h.M(), edgeSetHash(h.Edges()))
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNamesMatchBenchmarkJSON checks every metric name and unit
// against the allowed alphabet and against the repository's
// BENCHMARK.json, which must list the same metrics.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []struct{ name, unit string }, listed []struct{ Name, Unit string }) {
		if len(code) != len(listed) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(code), len(listed))
		}
		seen := map[string]bool{}
		for i, m := range code {
			if !nameRe.MatchString(m.name) || !unitRe.MatchString(m.unit) || seen[m.name] {
				t.Errorf("%s: bad or repeated metric %q (%q)", kind, m.name, m.unit)
			}
			seen[m.name] = true
			if i < len(listed) && (listed[i].Name != m.name || listed[i].Unit != m.unit) {
				t.Errorf("%s %d: code %s (%s), BENCHMARK.json %s (%s)", kind, i, m.name, m.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	// BENCHMARK.json lists the benchmark's workloads in order, possibly
	// leaving some out (README.md says which and why).
	k := 0
	for _, w := range workloads {
		if !nameRe.MatchString(w.name) {
			t.Errorf("bad workload name %q", w.name)
		}
		if k < len(spec.Workloads) && spec.Workloads[k].Name == w.name {
			k++
		}
	}
	if k != len(spec.Workloads) || k < 2 {
		t.Errorf("BENCHMARK.json workloads %v are not an ordered subset of at least two of the benchmark's", spec.Workloads)
	}
}
