package oracle

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// landmarkTable holds k full BFS trees rooted at deterministically chosen
// landmarks of the spanner graph H: the sparse-hub backend's hub rows.
// For any pair (u, v) the table answers the upper bound
// min_l d(u,l) + d(l,v) in O(k).
type landmarkTable struct {
	roots []int32         // sorted landmark vertex ids
	dist  *graph.FlatDist // Row(i)[v] = d_H(roots[i], v); graph.Unreachable if disconnected
}

// buildLandmarkTable selects k landmarks on h (selectLandmarks) and
// BFS-labels the graph from each. The k BFS runs execute through the
// multi-source kernel (bit-parallel on dense spanners, scalar per-source
// otherwise); both kernels produce identical tables at any worker count,
// so the table is deterministic in (seed, h) alone.
func buildLandmarkTable(h *graph.Graph, k int, seed uint64) *landmarkTable {
	if h.N() == 0 {
		// Vertex-free graph: no landmarks, an empty 0×0 table. Only
		// reachable from tests — NewFromGraphs rejects n == 0 — but
		// upperBound must not panic on it.
		return &landmarkTable{dist: graph.NewFlatDist(0, 0)}
	}
	roots := selectLandmarks(h, k, seed)
	return &landmarkTable{roots: roots, dist: h.MultiSourceBFSFrom(roots, 0)}
}

// selectLandmarks picks the sorted landmark set of a graph with n ≥ 1
// vertices, deterministically in (seed, h): the hub, h's highest-degree
// vertex (lowest id on ties), is always a landmark — hub coverage matters
// most for the bound's quality — and the remaining k−1 (k clamped to
// [1, n]) are a uniform sample of the other vertices: k−1 distinct slots
// of [0, n−1) from a seed-keyed stream, slot s standing for vertex s
// below the hub and s+1 from it on.
func selectLandmarks(h *graph.Graph, k int, seed uint64) []int32 {
	n := h.N()
	hub := int32(0)
	for v := int32(1); v < int32(n); v++ {
		if h.Degree(v) > h.Degree(hub) {
			hub = v
		}
	}
	roots := []int32{hub}
	if k = min(k, n); k > 1 {
		for _, s := range rng.New(seed^0x0a11c0de0a11c0de).Sample(n-1, k-1) {
			if int32(s) >= hub {
				s++
			}
			roots = append(roots, int32(s))
		}
	}
	slices.Sort(roots)
	return roots
}

// upperBound returns min over landmarks of d(u,l)+d(l,v), or
// graph.Unreachable if no landmark reaches both endpoints.
func (t *landmarkTable) upperBound(u, v int32) int32 {
	best := graph.Unreachable
	for i := 0; i < t.dist.Rows(); i++ {
		d := t.dist.Row(i)
		du, dv := d[u], d[v]
		if du == graph.Unreachable || dv == graph.Unreachable {
			continue
		}
		if s := du + dv; best == graph.Unreachable || s < best {
			best = s
		}
	}
	return best
}
