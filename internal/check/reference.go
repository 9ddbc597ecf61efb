package check

import (
	"math"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/spanner"
)

// This file holds the naive reference implementations the differential
// runner compares the optimized paths against. They are intentionally
// slow and intentionally boring: one plain BFS per source, one map per
// path. Do not optimize them — their
// value is that a reviewer can see they are correct at a glance.

// AllPairs returns the exact all-pairs hop-distance table of g via one
// independent BFS per source (graph.BFS, the simplest BFS in the repo) —
// deliberately not the bit-parallel kernel, which this table is the
// reference for. At(u, v) is graph.Unreachable for disconnected pairs; the
// triangular layout stores each unordered pair once (symmetry is a BFS
// theorem, not an implementation detail the reference relies on).
func AllPairs(g *graph.Graph) *graph.TriDist {
	n := g.N()
	out := graph.NewTriDist(n)
	for v := 0; v < n; v++ {
		row := g.BFS(int32(v))
		for w := v + 1; w < n; w++ {
			out.Set(int32(v), int32(w), row[w])
		}
	}
	return out
}

// EdgeStretch recomputes spanner.VerifyEdgeStretch's report from an exact
// distance table of h: for every edge (u, v) of g, the per-edge stretch
// is dist_H(u, v) (the edge has length 1 in G), +Inf when h disconnects
// the endpoints. The reduction runs in g's edge order with the same
// arithmetic as the optimized kernel, so agreement is exact, not
// approximate.
func EdgeStretch(g *graph.Graph, distH *graph.TriDist, alpha int) spanner.StretchReport {
	stretch := make([]float64, 0, g.M())
	for _, e := range g.Edges() {
		d := distH.At(e.U, e.V)
		if d == graph.Unreachable {
			stretch = append(stretch, math.Inf(1))
		} else {
			stretch = append(stretch, float64(d))
		}
	}
	return foldStretch(stretch, float64(alpha))
}

// PairStretch recomputes spanner.VerifyPairStretch's report for an
// explicit pair sample from exact distance tables of g and h, with the
// optimized kernel's value conventions: both-unreachable counts as
// stretch 1, h-only-unreachable as +Inf.
func PairStretch(distG, distH *graph.TriDist, pairs [][2]int32) spanner.StretchReport {
	stretch := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		dg := distG.At(p[0], p[1])
		dh := distH.At(p[0], p[1])
		switch {
		case dg == graph.Unreachable && dh == graph.Unreachable:
			stretch = append(stretch, 1)
		case dh == graph.Unreachable:
			stretch = append(stretch, math.Inf(1))
		case dg == 0:
			stretch = append(stretch, 1)
		default:
			stretch = append(stretch, float64(dh)/float64(dg))
		}
	}
	return foldStretch(stretch, math.Inf(1))
}

// foldStretch mirrors the optimized kernels' serial reduction: values
// above bound count as violations, the mean is the straight sum in slice
// order. Keeping the order identical keeps the floating-point results
// bit-identical.
func foldStretch(stretch []float64, bound float64) spanner.StretchReport {
	rep := spanner.StretchReport{Checked: len(stretch)}
	total := 0.0
	for _, s := range stretch {
		if s > rep.MaxStretch {
			rep.MaxStretch = s
		}
		if s > bound {
			rep.Violations++
		}
		total += s
	}
	if len(stretch) > 0 {
		rep.MeanStretch = total / float64(len(stretch))
	}
	return rep
}

// NodeCongestionProfile recomputes routing's C(P, v) accounting the
// obvious way: one set per path, each visited vertex counted once per
// path that contains it.
func NodeCongestionProfile(paths []routing.Path, n int) []int {
	counts := make([]int, n)
	for _, p := range paths {
		seen := make(map[int32]struct{}, len(p))
		for _, v := range p {
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			counts[v]++
		}
	}
	return counts
}

// NodeCongestion is max_v of NodeCongestionProfile.
func NodeCongestion(paths []routing.Path, n int) int {
	max := 0
	for _, c := range NodeCongestionProfile(paths, n) {
		if c > max {
			max = c
		}
	}
	return max
}

// SampledStretch is the realized-stretch accounting an oracle built with
// SampleEvery every must report after answering qs in order with exact
// answers: each in-range query advances a sequence number (self queries
// included), and each every-th one whose endpoints differ and are
// connected in H adds the ratio dist_H/dist_G. The fold is the straight
// serial sum in stream order, so the floats agree bit for bit with an
// oracle that samples in the same order.
type SampledStretch struct {
	Samples int
	Max     float64 // 0 with no samples
	Mean    float64 // 0 with no samples
}

// FoldSampledStretch computes SampledStretch for the stream qs over the
// exact distance tables of g and h on n vertices.
func FoldSampledStretch(distG, distH *graph.TriDist, n int, qs []oracle.Query, every int) SampledStretch {
	var s SampledStretch
	seq, total := 0, 0.0
	for _, q := range qs {
		u, v := q.U, q.V
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			continue
		}
		seq++
		if seq%every != 0 || u == v {
			continue
		}
		dh, dg := distH.At(u, v), distG.At(u, v)
		if dh == graph.Unreachable || dg == graph.Unreachable {
			continue
		}
		ratio := float64(dh) / float64(dg)
		s.Samples++
		total += ratio
		if ratio > s.Max {
			s.Max = ratio
		}
	}
	if s.Samples > 0 {
		s.Mean = total / float64(s.Samples)
	}
	return s
}
