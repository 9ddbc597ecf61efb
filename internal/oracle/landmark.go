package oracle

import (
	"encoding/binary"

	"repro/internal/graph"
	"repro/internal/rng"
)

// landmarkTable holds k full BFS trees rooted at deterministically chosen
// landmarks of the spanner graph H. For any pair (u, v) the table answers
// an upper bound min_l d(u,l) + d(l,v) in O(k): every answer carries it
// as Answer.Bound. It does not prune the exact bidirectional search.
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
		// reachable from tests — NewFromGraphs rejects n == 0 — but Bytes
		// and upperBound must not panic on it.
		return &landmarkTable{dist: graph.NewFlatDist(0, 0)}
	}
	roots := selectLandmarks(h, k, seed)
	return &landmarkTable{roots: roots, dist: h.MultiSourceBFSFrom(roots, 0)}
}

// selectLandmarks picks the sorted landmark set of a graph with n ≥ 1
// vertices, deterministically in (seed, h): the hub (hubOf) is always a
// landmark — hub coverage matters most for the bound's quality — and the
// remaining k−1 (k clamped to [1, n]) are a uniform sample from the rest
// of the vertex set (landmarkSample, placed around the hub by
// placeLandmarks).
func selectLandmarks(h *graph.Graph, k int, seed uint64) []int32 {
	return placeLandmarks(nil, hubOf(h), landmarkSample(h.N(), k, seed))
}

// hubOf returns the highest-degree vertex of h (lowest id on ties).
func hubOf(h *graph.Graph) int32 {
	hub := int32(0)
	for v := int32(1); v < int32(h.N()); v++ {
		if h.Degree(v) > h.Degree(hub) {
			hub = v
		}
	}
	return hub
}

// landmarkSample draws the non-hub landmark slots of a graph with n ≥ 1
// vertices: k−1 distinct values of [0, n−1) (k clamped to [1, n]) from a
// seed-keyed stream. They depend on (seed, n, k) alone, so a graph whose
// hub moves keeps its slots; placeLandmarks maps them to vertices.
func landmarkSample(n, k int, seed uint64) []int32 {
	if k > n {
		k = n
	}
	if k <= 1 {
		return nil
	}
	slots := rng.New(seed^0x0a11c0de0a11c0de).Sample(n-1, k-1)
	sample := make([]int32, len(slots))
	for i, v := range slots {
		sample[i] = int32(v)
	}
	return sample
}

// placeLandmarks writes the sorted landmark set of hub and the sampled
// slots into roots[:0] and returns it: the hub, and each slot s as vertex
// s when s < hub and s+1 otherwise, so the slots range over every vertex
// but the hub.
func placeLandmarks(roots []int32, hub int32, sample []int32) []int32 {
	roots = append(roots[:0], hub)
	for _, s := range sample {
		if s >= hub {
			s++
		}
		roots = append(roots, s)
	}
	sortInt32(roots)
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

// Bytes serializes the table (roots then row-major distances,
// little-endian int32) — the determinism contract checked in tests: two
// oracles built from the same seed and spanner must produce byte-identical
// tables.
func (t *landmarkTable) Bytes() []byte {
	n := 0
	if t.dist.Rows() > 0 {
		n = t.dist.N()
	}
	out := make([]byte, 0, 8+4*len(t.roots)+4*len(t.roots)*n)
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		out = append(out, buf[:]...)
	}
	put(int32(len(t.roots)))
	put(int32(n))
	for _, r := range t.roots {
		put(r)
	}
	for i := 0; i < t.dist.Rows(); i++ {
		for _, d := range t.dist.Row(i) {
			put(d)
		}
	}
	return out
}

func sortInt32(xs []int32) {
	// Insertion sort: k is small (tens of landmarks).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
