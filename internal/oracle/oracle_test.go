package oracle

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// buildTestSpanner constructs an expander DC-spanner in the Theorem 2
// regime (Δ > n^{2/3}) for oracle tests.
func buildTestSpanner(t testing.TB, n, d int, seed uint64) *core.DCSpanner {
	t.Helper()
	g := gen.MustRandomRegular(n, d, rng.New(seed))
	dc, err := core.Build(g, core.Options{
		Algorithm: core.AlgoExpander,
		Seed:      seed,
		Expander:  spanner.ExpanderOptions{EnsureConnected: true},
	})
	if err != nil {
		t.Fatalf("core.Build: %v", err)
	}
	return dc
}

func TestDistMatchesExactSpannerDistance(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 3)
	o, err := New(dc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := dc.Graph()
	r := rng.New(99)
	for i := 0; i < 300; i++ {
		u := int32(r.Intn(h.N()))
		v := int32(r.Intn(h.N()))
		ans, err := o.Dist(u, v)
		if err != nil {
			t.Fatal(err)
		}
		want := h.Dist(u, v)
		if !ans.Exact {
			t.Fatalf("Dist(%d,%d) not exact", u, v)
		}
		if ans.Dist != want {
			t.Fatalf("Dist(%d,%d) = %d, want %d", u, v, ans.Dist, want)
		}
		if ans.Bound != ans.Dist {
			t.Fatalf("Dist(%d,%d) bound %d, want the answer %d", u, v, ans.Bound, ans.Dist)
		}
	}
}

// TestRealizedStretchWithinCertifiedAlpha is the acceptance check: on a
// 1000-query random sample the measured stretch dist_H/dist_G never
// exceeds the spanner's certified α.
func TestRealizedStretchWithinCertifiedAlpha(t *testing.T) {
	dc := buildTestSpanner(t, 256, 64, 7)
	alpha := dc.CertifiedAlpha()
	if alpha <= 0 {
		t.Fatalf("expander spanner must certify a constant alpha, got %d", alpha)
	}
	o, err := New(dc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, n := dc.Base(), dc.Base().N()
	r := rng.New(1234)
	checked := 0
	for checked < 1000 {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		ans, err := o.Dist(u, v)
		if err != nil {
			t.Fatal(err)
		}
		dg := g.Dist(u, v)
		if dg == graph.Unreachable {
			continue
		}
		if ans.Dist == graph.Unreachable {
			t.Fatalf("(%d,%d) connected in G but not in H", u, v)
		}
		if float64(ans.Dist) > float64(alpha)*float64(dg) {
			t.Fatalf("stretch violation on (%d,%d): dist_H=%d dist_G=%d alpha=%d",
				u, v, ans.Dist, dg, alpha)
		}
		checked++
	}
	s := o.Stats()
	if s.StretchSamples > 0 && s.RealizedAlpha > float64(alpha) {
		t.Fatalf("oracle-sampled realized alpha %.3f exceeds certified %d", s.RealizedAlpha, alpha)
	}
}

// TestLandmarkDeterminism: two sparse-hub oracles built from the same
// seed must have byte-identical hub tables; a different seed must not (on
// a graph large enough that collisions are implausible).
func TestLandmarkDeterminism(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 11)
	hubs := func(seed uint64) *landmarkTable {
		o, err := New(dc, Options{Backend: BackendSparseHub, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return o.backend.(*sparseBackend).hubs
	}
	a, b, c := hubs(0), hubs(0), hubs(999)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different hub tables")
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical hub tables")
	}
	// The highest-degree vertex is always a hub.
	if hub := hubOf(dc.Graph()); !slices.Contains(a.roots, hub) {
		t.Fatalf("hub %d missing from hubs %v", hub, a.roots)
	}
}

// Answers are symmetric in (u, v), and every Dist call lands in the
// query counter and the latency histogram.
func TestSymmetricDistAndStats(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 5)
	o, err := New(dc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := o.Dist(3, 77)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := o.Dist(77, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Dist(3, 77); err != nil {
		t.Fatal(err)
	}
	if a1.Dist != a2.Dist || a1.Bound != a2.Bound {
		t.Fatalf("Dist(3,77) = %+v, Dist(77,3) = %+v", a1, a2)
	}
	s := o.Stats()
	if s.Queries != 3 {
		t.Fatalf("queries = %d, want 3", s.Queries)
	}
	if s.LatencyP50 <= 0 || s.LatencyP99 < s.LatencyP50 {
		t.Fatalf("implausible latency quantiles: p50=%v p99=%v", s.LatencyP50, s.LatencyP99)
	}
}

func TestDisconnectedPair(t *testing.T) {
	// Two disjoint triangles.
	b := graph.NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	o, err := NewFromGraphs(g, g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := o.Dist(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Dist != graph.Unreachable || !ans.Exact {
		t.Fatalf("disconnected pair: got %+v, want exact Unreachable", ans)
	}
	p, _, err := o.Route(0, 4)
	if err != nil || p != nil {
		t.Fatalf("Route across components: path=%v err=%v, want nil, nil", p, err)
	}
}

func TestRouteIsValidShortestPath(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 13)
	o, err := New(dc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := dc.Graph()
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		u := int32(r.Intn(h.N()))
		v := int32(r.Intn(h.N()))
		p, ans, err := o.Route(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Valid(h, u, v) {
			t.Fatalf("Route(%d,%d) invalid path %v", u, v, p)
		}
		if int32(p.Len()) != ans.Dist {
			t.Fatalf("Route(%d,%d) length %d != dist %d", u, v, p.Len(), ans.Dist)
		}
	}
	s := o.Stats()
	if s.Routes != 100 {
		t.Fatalf("routes = %d, want 100", s.Routes)
	}
	if s.MaxCongestion < 1 {
		t.Fatal("route congestion accounting recorded nothing")
	}
}

func TestAnswerBatchMatchesSequentialAndHandlesInvalid(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 17)
	o, err := New(dc, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	qs := make([]Query, 500)
	for i := range qs {
		qs[i] = Query{U: int32(r.Intn(128)), V: int32(r.Intn(128))}
	}
	qs[17] = Query{U: -1, V: 5}
	qs[403] = Query{U: 4, V: 1 << 20}
	got := o.AnswerBatch(qs)
	for i, q := range qs {
		var want Answer
		if q.U < 0 || q.V < 0 || q.U >= 128 || q.V >= 128 {
			want = Answer{U: q.U, V: q.V, Dist: graph.Unreachable, Bound: graph.Unreachable}
		} else {
			w, err := o.Dist(q.U, q.V)
			if err != nil {
				t.Fatal(err)
			}
			want = w
		}
		if got[i] != want {
			t.Fatalf("batch[%d] = %+v, sequential %+v", i, got[i], want)
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := NewFromGraphs(nil, nil, 1, Options{}); err == nil {
		t.Fatal("nil graphs accepted")
	}
	g := gen.MustRandomRegular(16, 4, rng.New(1))
	h := gen.MustRandomRegular(32, 4, rng.New(1))
	if _, err := NewFromGraphs(g, h, 1, Options{}); err == nil {
		t.Fatal("vertex count mismatch accepted")
	}
	o, err := NewFromGraphs(g, g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Dist(0, 16); err == nil {
		t.Fatal("out-of-range query accepted")
	}
}
