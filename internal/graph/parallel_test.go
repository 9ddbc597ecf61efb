package graph

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// randomKernelGraph builds a connected-ish random graph on n vertices with ~m
// edges for kernel tests (duplicates collapsed by BuildDedup).
func randomKernelGraph(n, m int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	for i := 0; i < m; i++ {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u != v {
			b.TryAddEdge(u, v)
		}
	}
	return b.BuildDedup()
}

func TestParallelRangeWorkersCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		ParallelRangeWorkers(n, workers, func(w, lo, hi int) {
			if w < 0 {
				t.Errorf("negative worker index %d", w)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
	// Degenerate sizes must not hang or call fn.
	ParallelRangeWorkers(0, 4, func(w, lo, hi int) { t.Error("fn called for n=0") })
	ParallelRangeWorkers(-3, 4, func(w, lo, hi int) { t.Error("fn called for n<0") })
}

// A worker panic must surface on the caller's goroutine, where a recover
// can see it, instead of killing the process from inside the pool.
func TestParallelRangeWorkersRepanicsOnCaller(t *testing.T) {
	boom := errors.New("worker boom")
	var got any
	func() {
		defer func() { got = recover() }()
		ParallelRangeWorkers(1000, 4, func(w, lo, hi int) {
			if lo <= 500 && 500 < hi {
				panic(boom)
			}
		})
	}()
	if got != boom {
		t.Fatalf("caller recovered %v, want the worker's panic value", got)
	}
}

func TestParallelBFSFromMatchesSerialBFS(t *testing.T) {
	g := randomKernelGraph(400, 1500, 11)
	sources := make([]int32, 0, 50)
	r := rng.New(3)
	for i := 0; i < 50; i++ {
		sources = append(sources, int32(r.Intn(g.N())))
	}
	want := make([][]int32, len(sources))
	for i, s := range sources {
		want[i] = g.BFS(s)
	}
	for _, workers := range []int{0, 1, 2, 4, 9} {
		got := g.ParallelBFSFrom(sources, workers)
		if got.Rows() != len(sources) || got.N() != g.N() {
			t.Fatalf("workers=%d: table is %dx%d, want %dx%d",
				workers, got.Rows(), got.N(), len(sources), g.N())
		}
		for i := range sources {
			if !reflect.DeepEqual(got.Row(i), want[i]) {
				t.Fatalf("workers=%d: ParallelBFSFrom row %d differs from serial BFS", workers, i)
			}
		}
	}
}

func TestParallelBFSSweepStreamsEverySource(t *testing.T) {
	g := randomKernelGraph(200, 600, 5)
	sources := []int32{0, 7, 31, 100, 199, 42}
	want := make([][]int32, len(sources))
	for i, s := range sources {
		want[i] = g.BFS(s)
	}
	for _, workers := range []int{1, 3, 6} {
		got := make([][]int32, len(sources))
		g.ParallelBFSSweep(sources, workers, func(i int, src int32, dist []int32) {
			if src != sources[i] {
				t.Errorf("index %d: got source %d, want %d", i, src, sources[i])
			}
			// dist is reused scratch: copy before retaining.
			got[i] = append([]int32(nil), dist...)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sweep distances differ from serial BFS", workers)
		}
	}
}

func TestBFSScratchBFSFromMatchesBFS(t *testing.T) {
	g := randomKernelGraph(120, 300, 21)
	s := NewBFSScratch(g.N())
	dist := make([]int32, g.N())
	for src := int32(0); src < int32(g.N()); src += 13 {
		s.BFSFrom(g, src, dist)
		want := g.BFS(src)
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("src %d vertex %d: got %d want %d", src, v, dist[v], want[v])
			}
		}
	}
	// Scratch interleaving: a bounded DistWithin between full sweeps must
	// not corrupt the next BFSFrom.
	s.DistWithin(g, 0, int32(g.N()-1), 2)
	s.BFSFrom(g, 0, dist)
	want := g.BFS(0)
	if !reflect.DeepEqual(dist, want) {
		t.Fatal("BFSFrom after DistWithin differs from serial BFS")
	}
}
