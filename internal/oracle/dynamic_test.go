package oracle

import (
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// The dynamic contract, end to end: a NewDynamic oracle driven through a
// random update sequence must answer every pair exactly like an oracle
// freshly built on the current spanner.
func TestDynamicMatchesFreshOracle(t *testing.T) {
	base := gen.ErdosRenyi(48, 0.08, rng.New(3))
	opts := Options{Backend: BackendLandmarkBiBFS, Seed: 42, SampleEvery: -1}
	d, err := NewDynamic(base, DynamicOptions{
		Spanner: spanner.IncrementalOptions{Seed: 0xfeed},
		Oracle:  opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(777)
	n := int32(base.N())
	for step := 0; step < 120; step++ {
		u, v := int32(r.Intn(int(n))), int32(r.Intn(int(n)))
		if u == v {
			continue
		}
		if _, err := d.Update(u, v, r.Bernoulli(0.5)); err != nil {
			t.Fatal(err)
		}
		if step%10 != 9 {
			continue
		}
		info := d.Snapshot(true)
		if !info.Verified || !info.Consistent {
			t.Fatalf("step %d: snapshot verify failed: %+v", step, info)
		}
		if hm := d.HM(); hm != info.HM {
			t.Fatalf("step %d: HM() = %d, snapshot HM %d", step, hm, info.HM)
		}
		s := d.inc.Spanner()
		fresh, err := NewFromGraphs(s.Base, s.H, spanner.IncrementalAlpha, opts)
		if err != nil {
			t.Fatal(err)
		}
		for a := int32(0); a < n; a++ {
			for b := a + 1; b < n; b++ {
				got, err1 := d.Dist(a, b)
				want, err2 := fresh.Dist(a, b)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if got != want {
					t.Fatalf("step %d pair (%d,%d): live answer %+v, fresh build %+v",
						step, a, b, got, want)
				}
			}
		}
	}
}

// A dynamic oracle serves landmark-bibfs under "", auto and its own
// name, and runs no tuner: on a 32-regular graph with n=4096, where auto
// on a static oracle picks exact-cached's 32 MiB table, it holds nothing.
// exact-cached and sparse-hub are refused with ErrDynamicBackend, named
// in the error.
func TestDynamicServesLandmarkBiBFSOnly(t *testing.T) {
	g, err := gen.RandomRegular(4096, 32, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", BackendAuto, BackendLandmarkBiBFS} {
		o, err := NewDynamic(g, DynamicOptions{Oracle: Options{Backend: name, SampleEvery: -1}})
		if err != nil {
			t.Fatalf("backend %q: %v", name, err)
		}
		if be, tuned, mem := o.Backend(), o.TunerReport() != nil, o.BackendStats().MemoryBytes; be != BackendLandmarkBiBFS || tuned || mem != 0 {
			t.Errorf("backend %q: serves %s (tuned %v, %d bytes), want landmark-bibfs untuned at 0 bytes",
				name, be, tuned, mem)
		}
	}
	for _, name := range []string{BackendExactCached, BackendSparseHub} {
		o, err := NewDynamic(g, DynamicOptions{Oracle: Options{Backend: name}})
		if o != nil || !errors.Is(err, ErrDynamicBackend) || !strings.Contains(err.Error(), name) {
			t.Errorf("backend %q: NewDynamic built %v, error %v; want a refusal naming it", name, o != nil, err)
		}
	}
}

// A landmark-bibfs oracle driven by update streams through Oracle.Update:
// after every update it must answer every pair as an exact table freshly
// built on the current spanner does. The three streams reach a hub move
// (H's highest-degree vertex changes), pairs that deletions disconnect
// and insertions reconnect, and deltas of several spanner edges from
// cluster moves.
func TestLandmarkRefreshMatchesFreshBuild(t *testing.T) {
	reg, err1 := gen.RandomRegular(64, 6, rng.New(9))
	cubic, err2 := gen.RandomRegular(48, 3, rng.New(4))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for _, tc := range []struct {
		name    string
		base    *graph.Graph
		pDelete float64 // chance that a step deletes a live edge
		want    func(hubMoves, disconnects, multi int) bool
	}{
		{"regular-hub-moves", reg, 0.5,
			func(hubMoves, _, _ int) bool { return hubMoves > 0 }},
		{"sparse-disconnects", cubic, 0.7,
			func(_, disconnects, _ int) bool { return disconnects > 0 }},
		{"cluster-moves", gen.ErdosRenyi(48, 0.18, rng.New(5)), 0.5,
			func(_, _, multi int) bool { return multi > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sopt := spanner.IncrementalOptions{Seed: 0xfeed}
			lm, err := NewDynamic(tc.base, DynamicOptions{
				Spanner: sopt,
				Oracle:  Options{Backend: BackendLandmarkBiBFS, SampleEvery: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			// mirror takes the same updates, to read the deltas they make.
			mirror := spanner.NewIncremental(tc.base, sopt)
			n := int32(tc.base.N())
			r := rng.New(31)
			hubMoves, disconnects, multi := 0, 0, 0
			hub := hubOf(mirror.H())
			connected := mirror.H().Connected()
			for step := 0; step < 150; step++ {
				var (
					u, v    int32
					add     bool
					applied bool
					delta   spanner.Delta
					err     error
				)
				if edges := mirror.Graph().Snapshot().Edges(); len(edges) > 0 && r.Bernoulli(tc.pDelete) {
					e := edges[r.Intn(len(edges))]
					u, v = e.U, e.V
					applied, delta, err = mirror.Delete(u, v)
				} else {
					u, v, add = int32(r.Intn(int(n))), int32(r.Intn(int(n))), true
					if u == v || mirror.Graph().HasEdge(u, v) {
						continue
					}
					applied, delta, err = mirror.Insert(u, v)
				}
				if err != nil || !applied {
					t.Fatalf("step %d: mirror update (%d,%d,add=%v) = %v, %v", step, u, v, add, applied, err)
				}
				if len(delta.Added)+len(delta.Removed) > 1 {
					multi++
				}
				if res, err := lm.Update(u, v, add); err != nil || !res.Applied {
					t.Fatalf("step %d: update (%d,%d,add=%v) = %+v, %v", step, u, v, add, res, err)
				}
				s := mirror.Spanner()
				freshEx, err := NewFromGraphs(s.Base, s.H, spanner.IncrementalAlpha,
					Options{Backend: BackendExactCached, SampleEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				if now := hubOf(s.H); now != hub {
					hubMoves++
					hub = now
				}
				now := s.H.Connected()
				if connected && !now {
					disconnects++
				}
				connected = now
				for a := int32(0); a < n; a++ {
					for b := a + 1; b < n; b++ {
						want, _ := freshEx.Dist(a, b)
						if got, _ := lm.Dist(a, b); got != want {
							t.Fatalf("step %d pair (%d,%d): live answer %+v, fresh exact build %+v",
								step, a, b, got, want)
						}
					}
				}
			}
			t.Logf("%d hub moves, %d disconnections, %d multi-edge deltas", hubMoves, disconnects, multi)
			if !tc.want(hubMoves, disconnects, multi) {
				t.Fatalf("stream missed its case: %d hub moves, %d disconnections, %d multi-edge deltas",
					hubMoves, disconnects, multi)
			}
		})
	}
}

// Reporting reads no state an update changes, so it never waits for
// one: with the oracle's lock held exclusively, as Update holds it, the
// stats snapshot, the backend's contract and a /metrics render all
// return, for every backend — the dynamic landmark-bibfs oracle and the
// table backends, which serve static oracles only.
func TestReportingDoesNotWaitForUpdates(t *testing.T) {
	base := gen.ErdosRenyi(48, 0.1, rng.New(6))
	for _, name := range BackendNames() {
		t.Run(name, func(t *testing.T) {
			opts := Options{Backend: name, SampleEvery: -1}
			var (
				o   *Oracle
				err error
			)
			if name == BackendLandmarkBiBFS {
				o, err = NewDynamic(base, DynamicOptions{Oracle: opts})
			} else {
				o, err = NewFromGraphs(base, base, 1, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			o.mu.Lock()
			defer o.mu.Unlock()
			for _, rep := range []struct {
				name string
				call func()
			}{
				{"Stats", func() { o.Stats() }},
				{"BackendStats", func() { o.BackendStats() }},
				{"WritePrometheus", func() { o.Registry().WritePrometheus(io.Discard) }},
			} {
				done := make(chan struct{})
				go func() {
					defer close(done)
					rep.call()
				}()
				select {
				case <-done:
				case <-time.After(2 * time.Second):
					t.Errorf("%s waited for the oracle's write lock", rep.name)
				}
			}
		})
	}
}

// No-op updates must leave the engine untouched and out-of-range ones
// must error without mutating anything.
func TestDynamicNoOpAndInvalidUpdates(t *testing.T) {
	base := gen.Cycle(16)
	d, err := NewDynamic(base, DynamicOptions{Oracle: Options{Backend: BackendLandmarkBiBFS}})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Snapshot(false)
	res, err := d.Update(0, 1, true) // edge already present
	if err != nil || res.Applied {
		t.Fatalf("inserting a present edge: %+v err=%v", res, err)
	}
	if _, err := d.Update(0, 16, true); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	after := d.Snapshot(false)
	if before != after {
		t.Fatalf("no-op updates changed the snapshot: %+v -> %+v", before, after)
	}
	if after.Seq != 0 {
		t.Fatalf("Seq advanced to %d on no-ops", after.Seq)
	}
}

// The repair histogram observes every applied update once and no
// no-op; a static oracle does not register it.
func TestUpdateStageHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := NewDynamic(gen.Cycle(24), DynamicOptions{Oracle: Options{Registry: reg}})
	if err != nil {
		t.Fatal(err)
	}
	applied := int64(0)
	for _, up := range []struct {
		u, v int32
		add  bool
	}{
		{0, 12, true},
		{0, 12, true}, // present: a no-op
		{3, 4, false},
		{3, 4, false}, // absent: a no-op
		{5, 17, true},
	} {
		res, err := d.Update(up.u, up.v, up.add)
		if err != nil {
			t.Fatal(err)
		}
		if res.Applied {
			applied++
		}
	}
	if h, ok := reg.Snapshot().Histograms[metricUpdateRepair]; !ok || h.Count != applied {
		t.Errorf("%s: registered=%v count=%d, want %d applied updates", metricUpdateRepair, ok, h.Count, applied)
	}

	static := obs.NewRegistry()
	if _, err := NewFromGraphs(gen.Cycle(24), gen.Cycle(24), 1, Options{Registry: static}); err != nil {
		t.Fatal(err)
	}
	if _, ok := static.Snapshot().Histograms[metricUpdateRepair]; ok {
		t.Errorf("a static oracle registers %s", metricUpdateRepair)
	}
}

// An applied update is the spanner repair over the live graphs, with no
// copy of either (one copy of H would be 18 KiB at n=256 and 138 KiB at
// n=2048 on these 8-regular graphs), and it allocates nothing at all:
// toggling a base edge outside the spanner gives an empty H-edge delta,
// toggling a spanner edge a non-empty one, and toggling a spanner edge
// at H's highest-degree vertex also moves which vertex that is.
func TestUpdateAllocatesNoCopy(t *testing.T) {
	for _, n := range []int{256, 2048} {
		g, err := gen.RandomRegular(n, 8, rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDynamic(g, DynamicOptions{
			Spanner: spanner.IncrementalOptions{Seed: 5},
			Oracle:  Options{Backend: BackendLandmarkBiBFS, SampleEvery: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The first spanner edge of both inputs is at the hub, so the
		// plain spanner case takes one away from it to stay distinct.
		edges, hub := g.Edges(), hubOf(d.h)
		atHub := func(e graph.Edge) bool { return e.U == hub || e.V == hub }
		outside := slices.IndexFunc(edges, func(e graph.Edge) bool { return !d.h.HasEdge(e.U, e.V) })
		inside := slices.IndexFunc(edges, func(e graph.Edge) bool { return d.h.HasEdge(e.U, e.V) && !atHub(e) })
		hubEdge := slices.IndexFunc(edges, func(e graph.Edge) bool { return d.h.HasEdge(e.U, e.V) && atHub(e) })
		if outside < 0 || inside < 0 || hubEdge < 0 {
			t.Fatalf("n=%d: no base edge outside the spanner (%d), inside it (%d) or inside it at the hub (%d)",
				n, outside, inside, hubEdge)
		}
		for _, tc := range []struct {
			name string
			e    graph.Edge
			inH  bool
		}{{"outside H", edges[outside], false}, {"in H", edges[inside], true}, {"in H at the hub", edges[hubEdge], true}} {
			e, hm := tc.e, d.h.M()
			toggle := func() {
				for _, add := range []bool{false, true} {
					res, err := d.Update(e.U, e.V, add)
					// A spanner edge leaves H with its delete; either way
					// the insert restores H.
					if err != nil || !res.Applied || tc.inH && d.h.HasEdge(e.U, e.V) != add ||
						(add || !tc.inH) && res.HM != hm {
						t.Fatalf("n=%d %s: toggling %v (add=%v) = %+v, %v; want applied and H restored to %d edges",
							n, tc.name, e, add, res, err, hm)
					}
				}
			}
			allocs := testing.AllocsPerRun(50, toggle)
			if d.h.M() != hm || d.h.HasEdge(e.U, e.V) != tc.inH {
				t.Fatalf("n=%d %s: the toggles did not restore the spanner", n, tc.name)
			}
			if allocs != 0 {
				t.Errorf("n=%d %s: an update pair allocates %v times, want 0", n, tc.name, allocs)
			}
		}
	}
}
