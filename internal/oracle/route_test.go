package oracle

import (
	"testing"
	"time"

	"repro/internal/graph"
)

// twoTriangleOracle builds an oracle over two disjoint triangles
// ({0,1,2} and {3,4,5}), the standard disconnected-pair fixture.
func twoTriangleOracle(t *testing.T) *Oracle {
	t.Helper()
	b := graph.NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	o, err := NewFromGraphs(g, g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestRouteDoesNotInflateDistAccounting is the regression test for the
// double-count bug: Route used to call Dist, so every route bumped
// Stats.Queries and pushed its latency into the Dist histogram, inflating
// QPS and skewing the quantiles relative to the caller's own query totals.
func TestRouteDoesNotInflateDistAccounting(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 23)
	o, err := New(dc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 20; i++ {
		if _, _, err := o.Route(i, i+50); err != nil {
			t.Fatal(err)
		}
	}
	s := o.Stats()
	if s.Routes != 20 {
		t.Fatalf("routes = %d, want 20", s.Routes)
	}
	if s.Queries != 0 {
		t.Fatalf("20 routes inflated Queries to %d, want 0", s.Queries)
	}
	if s.LatencyP50 != 0 || s.LatencyMean != 0 {
		t.Fatalf("route traffic leaked into the Dist histogram: p50=%v mean=%v",
			s.LatencyP50, s.LatencyMean)
	}
	if s.RouteLatencyP50 <= 0 || s.RouteLatencyP99 < s.RouteLatencyP50 {
		t.Fatalf("implausible route latency quantiles: p50=%v p99=%v",
			s.RouteLatencyP50, s.RouteLatencyP99)
	}

	// Mixed traffic: Dist and Route counters stay independent.
	for i := int32(0); i < 5; i++ {
		if _, err := o.Dist(i, i+30); err != nil {
			t.Fatal(err)
		}
	}
	s = o.Stats()
	if s.Queries != 5 || s.Routes != 20 {
		t.Fatalf("mixed traffic: queries=%d routes=%d, want 5 and 20", s.Queries, s.Routes)
	}
	if s.LatencyP50 <= 0 {
		t.Fatal("Dist histogram empty after 5 Dist queries")
	}
}

// TestMarkServingStartResetsQPSClock: QPS must be measured from the
// serving-start mark, not from New — otherwise idle time between oracle
// construction and the first query dilutes the figure.
func TestMarkServingStartResetsQPSClock(t *testing.T) {
	dc := buildTestSpanner(t, 64, 18, 29)
	o, err := New(dc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 50; i++ {
		if _, err := o.Dist(i%64, (i+13)%64); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(60 * time.Millisecond) // idle gap charged against the old clock
	s1 := o.Stats()
	o.MarkServingStart()
	s2 := o.Stats()
	if s2.Queries != s1.Queries {
		t.Fatalf("MarkServingStart changed query count: %d -> %d", s1.Queries, s2.Queries)
	}
	// Same query count over a strictly shorter elapsed window.
	if s2.QPS <= s1.QPS {
		t.Fatalf("QPS not remeasured from serving start: before=%.0f after=%.0f", s1.QPS, s2.QPS)
	}
}

// TestRouteCountsDisconnected: a route across components is still a served
// route (the client got an answer), but never a Dist query.
func TestRouteCountsDisconnected(t *testing.T) {
	o := twoTriangleOracle(t)
	p, _, err := o.Route(0, 4)
	if err != nil || p != nil {
		t.Fatalf("Route across components: path=%v err=%v", p, err)
	}
	s := o.Stats()
	if s.Routes != 1 || s.Queries != 0 {
		t.Fatalf("routes=%d queries=%d, want 1 and 0", s.Routes, s.Queries)
	}
}
