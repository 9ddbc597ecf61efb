package oracle

import "repro/internal/graph"

// biScratch is reusable state for bidirectional BFS on the spanner. One instance serves one goroutine at a time; the oracle pools
// them. Stamp arrays make per-query reset O(frontier) instead of O(n).
type biScratch struct {
	du, dv []int32 // distances from the two endpoints
	su, sv []int32 // generation stamps validating du/dv entries
	gen    int32
	qu, qv []int32 // current frontiers
	nq     []int32 // next-frontier scratch

	// maxFrontier is the largest single-side frontier of the last search —
	// the per-query work figure the oracle's telemetry histograms. Owned
	// by the goroutine holding the scratch; read before pooling it back.
	maxFrontier int
}

func newBiScratch(n int) *biScratch {
	return &biScratch{
		du: make([]int32, n), dv: make([]int32, n),
		su: make([]int32, n), sv: make([]int32, n),
		qu: make([]int32, 0, 64), qv: make([]int32, 0, 64), nq: make([]int32, 0, 64),
	}
}

// distance returns the exact hop distance between u ≠ v on h via
// level-synchronized bidirectional BFS, or graph.Unreachable. No outside
// bound prunes the search: the stopping rule alone caps the explored
// radius at the distance itself.
//
// Correctness of the stopping rule: after fully expanding a levels from u
// and b levels from v, every vertex within those radii is settled with its
// true distance. Any u–v path of length L <= a+b contains a vertex m with
// d(u,m) <= a and d(m,v) <= b, so m is settled by both sides and the
// candidate d(u,m)+d(m,v) <= L was recorded when the second side settled
// it. Hence once best <= a+b+1 no shorter path can remain undiscovered and
// best is exact.
func (s *biScratch) distance(h *graph.Graph, u, v int32) int32 {
	s.gen++
	if s.gen == 0 { // stamp wrap: invalidate everything once per 2^31 queries
		for i := range s.su {
			s.su[i] = 0
			s.sv[i] = 0
		}
		s.gen = 1
	}
	gen := s.gen
	s.qu = append(s.qu[:0], u)
	s.qv = append(s.qv[:0], v)
	s.du[u], s.su[u] = 0, gen
	s.dv[v], s.sv[v] = 0, gen
	var depthU, depthV int32
	best := graph.Unreachable
	s.maxFrontier = 1

	for len(s.qu) > 0 && len(s.qv) > 0 {
		if best != graph.Unreachable && depthU+depthV >= best-1 {
			break
		}
		// Expand the smaller frontier one full level.
		if len(s.qu) <= len(s.qv) {
			s.nq = s.nq[:0]
			for _, x := range s.qu {
				dx := s.du[x]
				for _, w := range h.Neighbors(x) {
					if s.su[w] == gen {
						continue
					}
					s.su[w] = gen
					s.du[w] = dx + 1
					if s.sv[w] == gen {
						if c := dx + 1 + s.dv[w]; best == graph.Unreachable || c < best {
							best = c
						}
					}
					s.nq = append(s.nq, w)
				}
			}
			s.qu, s.nq = s.nq, s.qu
			depthU++
			if len(s.qu) > s.maxFrontier {
				s.maxFrontier = len(s.qu)
			}
		} else {
			s.nq = s.nq[:0]
			for _, x := range s.qv {
				dx := s.dv[x]
				for _, w := range h.Neighbors(x) {
					if s.sv[w] == gen {
						continue
					}
					s.sv[w] = gen
					s.dv[w] = dx + 1
					if s.su[w] == gen {
						if c := dx + 1 + s.du[w]; best == graph.Unreachable || c < best {
							best = c
						}
					}
					s.nq = append(s.nq, w)
				}
			}
			s.qv, s.nq = s.nq, s.qv
			depthV++
			if len(s.qv) > s.maxFrontier {
				s.maxFrontier = len(s.qv)
			}
		}
	}
	// If best is still unset, a frontier emptied: that side's whole
	// component is settled, so had the endpoints been connected a meeting
	// would have been recorded.
	return best
}
