package routing

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/rng"
)

// errOnce records the first error reported by any worker.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// ShortestPaths routes every pair of the problem along one BFS shortest
// path, computing pairs in parallel. Returns an error if some pair is
// disconnected.
func ShortestPaths(g *graph.Graph, prob Problem) (*Routing, error) {
	paths := make([]Path, len(prob))
	var eo errOnce
	graph.ParallelRangeWorkers(len(prob), 0, func(_, lo, hi int) {
		scratch := graph.NewBFSScratch(g.N())
		parent := make([]int32, g.N())
		for i := lo; i < hi; i++ {
			p := scratch.PathWithin(g, prob[i].Src, prob[i].Dst, -1, parent)
			if p == nil {
				eo.set(fmt.Errorf("routing: pair (%d,%d) disconnected", prob[i].Src, prob[i].Dst))
				return
			}
			paths[i] = p
		}
	})
	if eo.err != nil {
		return nil, eo.err
	}
	return &Routing{Problem: prob, Paths: paths}, nil
}

// Valiant routes each pair via a uniformly random intermediate vertex
// (src → w → dst along BFS shortest paths). On expanders this classic
// trick yields short paths with low congestion w.h.p.; the harness uses it
// as the stand-in for the Scheideler permutation-routing result quoted for
// the Table 1 rows [16] and [5] (see DESIGN.md, substitutions).
func Valiant(g *graph.Graph, prob Problem, r *rng.RNG) (*Routing, error) {
	n := g.N()
	// Draw all intermediates up front from the parent stream so the result
	// is independent of worker scheduling.
	mids := make([]int32, len(prob))
	for i := range mids {
		mids[i] = int32(r.Intn(n))
	}
	paths := make([]Path, len(prob))
	var eo errOnce
	graph.ParallelRangeWorkers(len(prob), 0, func(_, lo, hi int) {
		scratch := graph.NewBFSScratch(n)
		parent := make([]int32, n)
		for i := lo; i < hi; i++ {
			src, dst, mid := prob[i].Src, prob[i].Dst, mids[i]
			p1 := scratch.PathWithin(g, src, mid, -1, parent)
			if p1 == nil {
				eo.set(fmt.Errorf("routing: (%d,%d) unreachable", src, mid))
				return
			}
			p2 := scratch.PathWithin(g, mid, dst, -1, parent)
			if p2 == nil {
				eo.set(fmt.Errorf("routing: (%d,%d) unreachable", mid, dst))
				return
			}
			// Concatenate, dropping the duplicated intermediate vertex.
			full := make(Path, 0, len(p1)+len(p2)-1)
			full = append(full, p1...)
			full = append(full, p2[1:]...)
			paths[i] = simplifyWalk(full)
		}
	})
	if eo.err != nil {
		return nil, eo.err
	}
	return &Routing{Problem: prob, Paths: paths}, nil
}

// simplifyWalk removes loops from a walk (repeated vertices), producing a
// simple path with the same endpoints. Keeping paths simple keeps the
// congestion accounting tight.
func simplifyWalk(w Path) Path {
	last := make(map[int32]int, len(w))
	out := make(Path, 0, len(w))
	for _, v := range w {
		if j, ok := last[v]; ok {
			// Cut the loop back to the previous occurrence.
			for _, u := range out[j+1:] {
				delete(last, u)
			}
			out = out[:j+1]
			continue
		}
		last[v] = len(out)
		out = append(out, v)
	}
	return out
}

// RandomProblem samples k source–destination pairs uniformly (endpoints
// distinct per pair).
func RandomProblem(n, k int, r *rng.RNG) Problem {
	prob := make(Problem, k)
	for i := range prob {
		s := int32(r.Intn(n))
		d := int32(r.Intn(n))
		for d == s {
			d = int32(r.Intn(n))
		}
		prob[i] = Pair{Src: s, Dst: d}
	}
	return prob
}

// RandomPermutationProblem builds a permutation routing problem: node i
// sends to π(i) for a uniform permutation π, skipping fixed points.
func RandomPermutationProblem(n int, r *rng.RNG) Problem {
	perm := r.Perm(n)
	prob := make(Problem, 0, n)
	for i, j := range perm {
		if i != j {
			prob = append(prob, Pair{Src: int32(i), Dst: int32(j)})
		}
	}
	return prob
}

// RandomMatchingProblem builds a matching routing problem on n vertices by
// pairing up 2k distinct random vertices.
func RandomMatchingProblem(n, k int, r *rng.RNG) Problem {
	if 2*k > n {
		panic("routing: matching larger than n/2")
	}
	verts := r.Sample(n, 2*k)
	prob := make(Problem, k)
	for i := 0; i < k; i++ {
		prob[i] = Pair{Src: int32(verts[2*i]), Dst: int32(verts[2*i+1])}
	}
	return prob
}
