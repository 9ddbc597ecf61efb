package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/spanner"
	"repro/internal/wire"
)

// staticSpanner rebuilds the expander spanner dcserve and dcrouter serve
// (their default -algo, with the same seed).
func staticSpanner(g *graph.Graph, seed uint64) (*core.DCSpanner, error) {
	return core.Build(g, core.Options{
		Algorithm: core.AlgoExpander,
		Seed:      seed,
		Expander:  spanner.ExpanderOptions{EnsureConnected: true},
	})
}

// verdict is the correctness gate's outcome for one serving process.
type verdict struct {
	checked     int
	fingerprint uint64 // FNV-1a over (u, v, dist, exact) of the checked answers
	err         error  // first wrong answer or mismatch; nil when correct
}

func (v *verdict) fail(err error) {
	if v.err == nil {
		v.err = err
	}
}

// checkDists compares served answers with d_H. Both pinned backends
// declare stretch 1, so every answer must be exact and equal d_H.
func checkDists(h *graph.Graph, chk *checked, v *verdict) {
	var srcs []int32
	row := map[int32]int{}
	for i, q := range chk.qs {
		if !chk.ok[i] {
			continue
		}
		if _, ok := row[q.U]; !ok {
			row[q.U] = len(srcs)
			srcs = append(srcs, q.U)
		}
	}
	if len(srcs) == 0 {
		v.fail(fmt.Errorf("no answer to check"))
		return
	}
	dist := h.BitParallelBFSFrom(srcs, 0)
	fp := fnv.New64a()
	var b [13]byte
	for i, q := range chk.qs {
		if !chk.ok[i] {
			continue
		}
		a := chk.as[i]
		want := dist.At(row[q.U], q.V)
		if a.U != q.U || a.V != q.V || !a.Exact || a.Dist != want {
			v.fail(fmt.Errorf("query (%d,%d) answered (%d,%d) dist=%d exact=%v, d_H=%d",
				q.U, q.V, a.U, a.V, a.Dist, a.Exact, want))
		}
		binary.LittleEndian.PutUint32(b[0:], uint32(a.U))
		binary.LittleEndian.PutUint32(b[4:], uint32(a.V))
		binary.LittleEndian.PutUint32(b[8:], uint32(a.Dist))
		b[12] = 0
		if a.Exact {
			b[12] = 1
		}
		fp.Write(b[:])
		v.checked++
	}
	v.fingerprint ^= fp.Sum64()
}

// checkChurn is churn_rw's gate, run once the writer has stopped: the
// verified snapshot must be consistent and match the benchmark's edge set,
// and a prefix of the read stream, replayed now, must equal d_H on the
// spanner rebuilt from that edge set.
func checkChurn(c *wire.Client, t *edgeTracker, seed uint64, reads []oracle.Query, v *verdict) {
	snap, err := c.Snap(true)
	if err != nil {
		v.fail(fmt.Errorf("snapshot: %w", err))
		return
	}
	edges := t.edges()
	g := graph.FromEdges(t.base.N(), edges)
	h := spanner.NewIncremental(g, spanner.IncrementalOptions{Seed: seed}).Spanner().H
	switch {
	case !snap.Verified || !snap.Consistent:
		v.fail(fmt.Errorf("snapshot verified=%v consistent=%v", snap.Verified, snap.Consistent))
	case snap.M != len(edges) || snap.GraphHash != edgeSetHash(edges):
		v.fail(fmt.Errorf("snapshot m=%d ghash=%x, tracked m=%d ghash=%x",
			snap.M, snap.GraphHash, len(edges), edgeSetHash(edges)))
	case snap.HM != h.M() || snap.SpannerHash != edgeSetHash(h.Edges()):
		v.fail(fmt.Errorf("snapshot hm=%d hhash=%x, rebuilt hm=%d hhash=%x",
			snap.HM, snap.SpannerHash, h.M(), edgeSetHash(h.Edges())))
	}
	chk := newChecked(len(reads))
	for i, q := range reads {
		a, err := c.Dist(q.U, q.V)
		if err != nil {
			v.fail(fmt.Errorf("check read: %w", err))
			return
		}
		chk.set(i, q, a)
	}
	checkDists(h, chk, v)
	v.fingerprint ^= snap.GraphHash ^ snap.SpannerHash
}
