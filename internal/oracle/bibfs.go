package oracle

import "repro/internal/graph"

// biScratch is reusable state for bidirectional BFS on the spanner. One instance serves one goroutine at a time; the oracle pools
// them. Generation stamps make the per-query reset O(1) instead of O(n).
type biScratch struct {
	// mark is one side-tagged stamp per vertex: 2·gen when the current
	// search reached it from u, 2·gen+1 from v; any older value means
	// unreached.
	mark   []uint32
	gen    uint32
	qu, qv []int32 // current frontiers
	nq     []int32 // next-frontier scratch

	// maxFrontier is the largest single-side frontier of the last search,
	// counting the partial level it stopped in — the per-query work figure
	// the oracle's telemetry histograms. Owned by the goroutine holding
	// the scratch; read before pooling it back.
	maxFrontier int
}

// stampReset is the generation at which 2·gen+1 would overflow a uint32
// stamp, so distance clears every mark and starts again at 1.
const stampReset = 1 << 31

func newBiScratch(n int) *biScratch {
	return &biScratch{
		mark: make([]uint32, n),
		qu:   make([]int32, 0, 64), qv: make([]int32, 0, 64), nq: make([]int32, 0, 64),
	}
}

// distance returns the exact hop distance between u ≠ v on h via
// level-synchronized bidirectional BFS, or graph.Unreachable. Each level
// expands the smaller frontier, and the search returns at the first
// vertex reached from both sides.
//
// Correctness: if no vertex was reached from both sides after k levels in
// total, a from u and b from v, then d(u,v) > k, since a u–v path of
// length at most a+b holds a vertex within a of u and within b of v. The
// first meeting while expanding level k+1 joins a frontier vertex at
// depth a (or b) to a vertex the other side reached within b (or a): a
// walk of length at most k+1, so k+1 is the distance. If a frontier
// empties first, its side's whole component was reached without a
// meeting, so the endpoints are disconnected.
func (s *biScratch) distance(h *graph.Graph, u, v int32) int32 {
	s.gen++
	if s.gen == stampReset {
		clear(s.mark)
		s.gen = 1
	}
	mark := s.mark
	mu, mv := 2*s.gen, 2*s.gen+1
	mark[u], mark[v] = mu, mv
	s.qu = append(s.qu[:0], u)
	s.qv = append(s.qv[:0], v)
	s.maxFrontier = 1

	for depth := int32(1); len(s.qu) > 0 && len(s.qv) > 0; depth++ {
		q, own, other := s.qu, mu, mv
		if len(s.qv) < len(s.qu) {
			q, own, other = s.qv, mv, mu
		}
		next := s.nq[:0]
		for _, x := range q {
			for _, w := range h.Neighbors(x) {
				m := mark[w]
				if m == other {
					s.nq = next
					s.maxFrontier = max(s.maxFrontier, len(next))
					return depth
				}
				if m != own {
					mark[w] = own
					next = append(next, w)
				}
			}
		}
		s.maxFrontier = max(s.maxFrontier, len(next))
		if own == mu {
			s.qu, s.nq = next, s.qu
		} else {
			s.qv, s.nq = next, s.qv
		}
	}
	return graph.Unreachable
}
