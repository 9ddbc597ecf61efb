package oracle

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/graph"
)

// Bytes serializes the table (roots then row-major distances,
// little-endian int32) — the determinism contract the tests check: two
// tables built from the same seed and spanner are byte-identical.
func (t *landmarkTable) Bytes() []byte {
	n := 0
	if t.dist.Rows() > 0 {
		n = t.dist.N()
	}
	out := make([]byte, 0, 8+4*len(t.roots)+4*len(t.roots)*n)
	put := func(x int32) { out = binary.LittleEndian.AppendUint32(out, uint32(x)) }
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

// hubOf returns h's highest-degree vertex, the lowest id on ties.
func hubOf(h *graph.Graph) int32 {
	hub := int32(0)
	for v := int32(1); v < int32(h.N()); v++ {
		if h.Degree(v) > h.Degree(hub) {
			hub = v
		}
	}
	return hub
}

func TestLandmarkTableEmptyAndOneVertexGraphs(t *testing.T) {
	// Vertex-free graph: no landmarks, Bytes must still serialize.
	empty := graph.NewBuilder(0).BuildDedup()
	et := buildLandmarkTable(empty, 4, 7)
	if len(et.roots) != 0 {
		t.Fatalf("empty graph got %d landmarks, want 0", len(et.roots))
	}
	// Header only: zero roots, zero vertices.
	if b := et.Bytes(); len(b) != 8 {
		t.Fatalf("empty-graph Bytes has %d bytes, want 8 (header only)", len(b))
	}

	// One-vertex graph: the single vertex is the hub landmark.
	one := graph.NewBuilder(1).BuildDedup()
	ot := buildLandmarkTable(one, 4, 7)
	if len(ot.roots) != 1 || ot.roots[0] != 0 {
		t.Fatalf("one-vertex graph landmarks = %v, want [0]", ot.roots)
	}
	if d := ot.dist.At(0, 0); d != 0 {
		t.Fatalf("one-vertex self distance = %d, want 0", d)
	}
	// Header + one root + one distance cell.
	if b := ot.Bytes(); len(b) != 8+4+4 {
		t.Fatalf("one-vertex Bytes has %d bytes, want 16", len(b))
	}
	if ub := ot.upperBound(0, 0); ub != 0 {
		t.Fatalf("one-vertex upperBound(0,0) = %d, want 0", ub)
	}
}

func TestLandmarkUpperBoundWhenNoLandmarkReachesBoth(t *testing.T) {
	// Two components: a triangle {0,1,2} (high degree, holds the hub) and
	// an edge {3,4}. With k=1 the sole landmark sits in the triangle, so
	// it reaches neither endpoint of a pair inside {3,4}, and no landmark
	// reaches both endpoints of a cross-component pair.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	h := b.BuildDedup()
	lt := buildLandmarkTable(h, 1, 9)
	// Hub selection is highest degree with lowest id on ties: vertex 0.
	if len(lt.roots) != 1 || lt.roots[0] != 0 {
		t.Fatalf("landmarks = %v, want [0]", lt.roots)
	}
	if ub := lt.upperBound(3, 4); ub != graph.Unreachable {
		t.Fatalf("upperBound(3,4) = %d, want Unreachable (landmark reaches neither)", ub)
	}
	if ub := lt.upperBound(0, 3); ub != graph.Unreachable {
		t.Fatalf("upperBound(0,3) = %d, want Unreachable (landmark reaches one side)", ub)
	}
	if ub := lt.upperBound(1, 2); ub != 2 {
		t.Fatalf("upperBound(1,2) = %d, want 2 (through landmark 0)", ub)
	}
}

// The landmark table must not depend on which BFS kernel filled it: the
// scalar per-source kernel and the bit-parallel kernel are byte-identical
// through Bytes().
func TestLandmarkTableKernelByteIdentity(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 77)
	h := dc.Graph()
	lt := buildLandmarkTable(h, 9, 41)

	scalar := &landmarkTable{roots: lt.roots, dist: h.ParallelBFSFrom(lt.roots, 1)}
	bitp := &landmarkTable{roots: lt.roots, dist: h.BitParallelBFSFrom(lt.roots, 0)}
	if !bytes.Equal(scalar.Bytes(), bitp.Bytes()) {
		t.Fatal("scalar-built and bit-parallel-built landmark tables serialize differently")
	}
	if !bytes.Equal(lt.Bytes(), scalar.Bytes()) {
		t.Fatal("buildLandmarkTable output differs from the scalar kernel's table")
	}
}
