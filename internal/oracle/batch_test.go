package oracle

import (
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// The bulk multi-source sweep must be answer-for-answer identical to the
// per-query path: same Dist, Bound, Exact, and sentinel handling for
// invalid queries. The batch mixes duplicates, self queries, both invalid
// shapes, and enough source sharing to trip the bulk gate.
func TestAnswerBulkMatchesPerQueryPath(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 13)
	mk := func(workers int) *Oracle {
		o, err := New(dc, Options{Workers: workers, SampleEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	n := dc.Graph().N()
	r := rng.New(5)
	qs := make([]Query, 0, 600)
	for i := 0; i < 560; i++ {
		// ~32 distinct sources so valid >= 2*sources comfortably holds.
		qs = append(qs, Query{U: int32(r.Intn(32)), V: int32(r.Intn(n))})
	}
	qs = append(qs,
		Query{U: 3, V: 3},            // self
		Query{U: -1, V: 5},           // invalid low
		Query{U: 5, V: int32(n)},     // invalid high
		Query{U: 9, V: 9},            // self again
		Query{U: int32(n - 1), V: 0}, // unique source
		Query{U: int32(n - 1), V: 0}, // duplicate query
	)

	// Ground truth: per-query answers on a fresh oracle (batch below the
	// bulk threshold takes the per-query path by construction).
	ref := mk(1)
	want := make([]Answer, len(qs))
	for i, q := range qs {
		a, _, err := ref.answer(q.U, q.V)
		if err != nil {
			a = Answer{U: q.U, V: q.V, Dist: graph.Unreachable, Bound: graph.Unreachable}
		}
		want[i] = a
	}

	for _, workers := range []int{1, 2, 8} {
		o := mk(workers)
		out := o.AnswerBatch(qs)
		if len(out) != len(qs) {
			t.Fatalf("workers=%d: %d answers for %d queries", workers, len(out), len(qs))
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("workers=%d: answer %d = %+v, per-query path says %+v",
					workers, i, out[i], want[i])
			}
		}
		// The batch must actually have gone through the bulk path: every
		// valid non-self query lands in the bulk counter, none in the
		// per-query resolution counters.
		snap := o.Registry().Snapshot()
		validNonSelf := int64(0)
		for _, q := range qs {
			if q.U >= 0 && q.V >= 0 && int(q.U) < n && int(q.V) < n && q.U != q.V {
				validNonSelf++
			}
		}
		if got := snap.Counters[backendKey(metricPathBulk, BackendLandmarkBiBFS)]; got != validNonSelf {
			t.Fatalf("workers=%d: bulk counter %d, want %d", workers, got, validNonSelf)
		}
		if snap.Counters[backendKey(metricPathBiBFS, BackendLandmarkBiBFS)] != 0 {
			t.Fatalf("workers=%d: bulk batch leaked into per-query path counters", workers)
		}
	}
}

// A bulk-arm batch charges its wall time to the queries it accounts, not
// to every query sent: one valid query among 1,023 out-of-range ones is
// observed once, with (up to the work outside the timed span) the whole
// batch's wall time. Dividing by the batch length instead would record at
// most 1/1024 of it.
func TestBulkBatchLatencyAmortizedOverAccountedQueries(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 13)
	o, err := New(dc, Options{Backend: BackendExactCached, Workers: 1, SampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Query, 1024)
	for i := range qs {
		qs[i] = Query{U: -1, V: int32(i)}
	}
	qs[0] = Query{U: 1, V: 2}
	best := 0.0
	for i := 0; i < 50; i++ {
		count, sum := o.latency.Count(), o.latency.Sum()
		t0 := time.Now()
		o.AnswerBatch(qs)
		elapsed := time.Since(t0).Seconds()
		if got := o.latency.Count() - count; got != 1 {
			t.Fatalf("batch observed %d latencies, want 1 (one accounted query)", got)
		}
		best = max(best, (o.latency.Sum()-sum)/elapsed)
	}
	if best < 1.0/16 {
		t.Fatalf("recorded latency is at most %.4f of the batch's wall time, want the whole batch charged to its one query", best)
	}
}

// A per-query batch settles its counts and stretch samples in batch
// order, so fresh oracles at 2 and 8 workers report exactly the stretch
// figures of a 1-worker oracle. Each batch has too many distinct sources
// for the bulk arm, so the per-query pool serves it.
func TestPerQueryBatchStretchIndependentOfWorkers(t *testing.T) {
	s := spanner.NewIncremental(gen.ErdosRenyi(300, 0.03, rng.New(1)), spanner.IncrementalOptions{Seed: 2}).Spanner()
	r := rng.New(3)
	qs := make([]Query, 200)
	for i := range qs {
		qs[i] = Query{U: int32(r.Intn(300)), V: int32(r.Intn(300))}
	}
	type figures struct {
		samples     int
		alpha, mean float64
	}
	run := func(workers int) figures {
		o, err := NewFromGraphs(s.Base, s.H, spanner.IncrementalAlpha,
			Options{Backend: BackendLandmarkBiBFS, Workers: workers, SampleEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewReqTrace(1, time.Now())
		o.AnswerBatchTrace(qs, tr)
		if tr.Path() != obs.PathBiBFS {
			t.Fatalf("workers=%d: batch served by path %s, want the per-query pool's bibfs",
				workers, obs.PathString(tr.Path()))
		}
		st := o.Stats()
		return figures{st.StretchSamples, st.RealizedAlpha, st.MeanStretch}
	}
	want := run(1)
	if want.samples == 0 {
		t.Fatal("the reference oracle took no stretch sample")
	}
	for _, workers := range []int{2, 8} {
		for i := 0; i < 20; i++ {
			if got := run(workers); got != want {
				t.Fatalf("workers=%d oracle %d: stretch figures %+v, 1-worker oracle %+v", workers, i, got, want)
			}
		}
	}
}
