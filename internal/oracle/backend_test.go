package oracle

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Every backend must agree with the exact spanner distance within its
// declared stretch bound, an Exact answer must be the exact distance, and
// every answer's Bound must equal its Dist. The bidirectional search and
// the exact table both declare 1, so they must match outright; the
// sparse backend declares 3.
func TestBackendsRespectDeclaredStretch(t *testing.T) {
	dc := buildTestSpanner(t, 160, 36, 21)
	h := dc.Graph()
	ref, err := New(dc, Options{Backend: BackendExactCached, SampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	qs := make([]Query, 500)
	for i := range qs {
		qs[i] = Query{U: int32(r.Intn(h.N())), V: int32(r.Intn(h.N()))}
	}
	for _, name := range BackendNames() {
		o, err := New(dc, Options{Backend: name, SampleEvery: -1, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Backend() != name {
			t.Fatalf("Backend() = %q, want %q", o.Backend(), name)
		}
		bound := o.BackendStats().StretchBound
		for _, q := range qs {
			exact, err := ref.Dist(q.U, q.V)
			if err != nil {
				t.Fatal(err)
			}
			a, err := o.Dist(q.U, q.V)
			if err != nil {
				t.Fatalf("%s: Dist(%d,%d): %v", name, q.U, q.V, err)
			}
			switch {
			case exact.Dist == graph.Unreachable:
				if a.Dist != graph.Unreachable {
					t.Fatalf("%s: (%d,%d) finite %d on a disconnected pair", name, q.U, q.V, a.Dist)
				}
			case a.Exact && a.Dist != exact.Dist:
				t.Fatalf("%s: (%d,%d) claims exact %d, exact is %d", name, q.U, q.V, a.Dist, exact.Dist)
			case a.Dist < exact.Dist:
				t.Fatalf("%s: (%d,%d) answered %d below exact %d", name, q.U, q.V, a.Dist, exact.Dist)
			case bound > 0 && int64(a.Dist) > int64(bound)*int64(exact.Dist):
				t.Fatalf("%s: (%d,%d) answered %d, over declared %d× of exact %d",
					name, q.U, q.V, a.Dist, bound, exact.Dist)
			}
			if a.Bound != a.Dist {
				t.Fatalf("%s: (%d,%d) Bound %d differs from Dist %d", name, q.U, q.V, a.Bound, a.Dist)
			}
		}
	}
}

// AnswerBatch must equal sequential Dist answers for every backend at
// every worker count, including the backends' bulk arms.
func TestBackendBatchMatchesSequential(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 22)
	n := dc.Graph().N()
	r := rng.New(23)
	qs := make([]Query, 400)
	for i := range qs {
		qs[i] = Query{U: int32(r.Intn(24)), V: int32(r.Intn(n))}
	}
	qs = append(qs, Query{U: 5, V: 5}, Query{U: -2, V: 1}, Query{U: 1, V: int32(n)})
	for _, name := range BackendNames() {
		want := make([]Answer, len(qs))
		seqO, err := New(dc, Options{Backend: name, SampleEvery: -1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			a, _, err := seqO.answer(q.U, q.V)
			if err != nil {
				a = Answer{U: q.U, V: q.V, Dist: graph.Unreachable, Bound: graph.Unreachable}
			}
			want[i] = a
		}
		for _, workers := range []int{1, 2, 8} {
			o, err := New(dc, Options{Backend: name, SampleEvery: -1, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			out := o.AnswerBatch(qs)
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("%s workers=%d: answer %d = %+v, sequential says %+v",
						name, workers, i, out[i], want[i])
				}
			}
		}
	}
}

// The auto-tuner must pick a real backend, report every candidate, and
// serve answers identical to the chosen backend built directly.
func TestAutoTunerPicksAndReports(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 24)
	o, err := New(dc, Options{Backend: BackendAuto, SampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep := o.TunerReport()
	if rep == nil {
		t.Fatal("auto backend produced no tuner report")
	}
	if rep.Chosen != o.Backend() {
		t.Fatalf("report chose %q but oracle serves %q", rep.Chosen, o.Backend())
	}
	if len(rep.Candidates) != len(BackendNames()) {
		t.Fatalf("report has %d candidates, want %d", len(rep.Candidates), len(BackendNames()))
	}
	if rep.String() == "" {
		t.Fatal("empty tuner report rendering")
	}
	direct, err := New(dc, Options{Backend: rep.Chosen, SampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{{0, 1}, {5, 100}, {64, 3}} {
		a, err := o.Dist(q.U, q.V)
		if err != nil {
			t.Fatal(err)
		}
		b, err := direct.Dist(q.U, q.V)
		if err != nil {
			t.Fatal(err)
		}
		if a.Dist != b.Dist || a.Exact != b.Exact {
			t.Fatalf("auto answer %+v != direct %s answer %+v", a, rep.Chosen, b)
		}
	}
	// A budget below every estimate still serves: landmark-bibfs holds 0
	// bytes and is never skipped, so auto-tuning cannot fail on memory
	// alone.
	tiny, err := New(dc, Options{Backend: BackendAuto, MemoryBudget: 1, SampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Backend() != BackendLandmarkBiBFS {
		t.Fatalf("1-byte budget picked %q, want the never-skipped landmark backend", tiny.Backend())
	}
	for _, c := range tiny.TunerReport().Candidates {
		if c.Name != BackendLandmarkBiBFS && c.Skipped == "" {
			t.Fatalf("candidate %s not skipped under a 1-byte budget", c.Name)
		}
	}
}

// An unknown backend name is a construction error, not a silent default.
func TestUnknownBackendRejected(t *testing.T) {
	dc := buildTestSpanner(t, 64, 32, 25)
	if _, err := New(dc, Options{Backend: "btree"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// The backend info gauge and the backend-labeled counters reach the
// exposition, keyed by backend name.
func TestBackendMetricsLabeled(t *testing.T) {
	dc := buildTestSpanner(t, 96, 32, 26)
	for name, series := range map[string]string{
		BackendExactCached: `oracle_path_exact_total{backend="exact-cached"}`,
		BackendSparseHub:   `oracle_path_hub_total{backend="sparse-hub"}`,
	} {
		reg := obs.NewRegistry()
		o, err := New(dc, Options{Backend: name, Registry: reg, SampleEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.Dist(0, 1); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		info := `oracle_backend_info{backend="` + name + `"}`
		for _, want := range []string{info, series, "oracle_backend_stretch_bound", "oracle_backend_memory_bytes"} {
			if !strings.Contains(b.String(), want) {
				t.Errorf("%s exposition missing %q", name, want)
			}
		}
	}
}
