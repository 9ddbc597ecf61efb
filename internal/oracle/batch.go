package oracle

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// AnswerBatch answers a batch of distance queries on the oracle's worker
// pool and returns one Answer per query, index-aligned with qs. Invalid
// queries (vertices out of range) yield an Answer with Dist and Bound set
// to graph.Unreachable rather than an error, so one bad query does not
// poison a batch.
//
// Answers are identical to answering the queries sequentially: every
// backend's resolution is deterministic, so scheduling cannot change an
// answer, and one serial pass settles the batch's query counts, latency
// and stretch samples in batch order. A backend may serve the whole
// batch through a bulk arm when that is cheaper — the landmark backend's
// multi-source BFS sweep for large batches, the exact backend's parallel
// table fill — and the answers are the same either way.
func (o *Oracle) AnswerBatch(qs []Query) []Answer {
	return o.AnswerBatchTrace(qs, nil)
}

// AnswerBatchTrace is AnswerBatch with an optional request trace: the
// answers are identical (the trace influences nothing the differential
// harness can see), but the trace's path mask accumulates every
// resolution path the batch took and an "oracle" hop records which arm
// (backend bulk vs per-query pool) served it. A nil trace costs only the
// per-batch nil checks — path bits are folded into a local word per
// worker either way, never per-query atomics.
func (o *Oracle) AnswerBatchTrace(qs []Query, tr *obs.ReqTrace) []Answer {
	o.mu.RLock()
	defer o.mu.RUnlock()
	t0 := time.Now()
	out := make([]Answer, len(qs))
	if len(qs) == 0 {
		return out
	}
	arm := "bulk"
	mask, handled := o.backend.AnswerBatch(qs, out)
	if !handled {
		arm = "perquery"
		mask = o.answerMany(qs, out)
	}
	o.accountBatch(qs, out, t0)
	if tr != nil {
		tr.OrPath(mask)
		tr.Hop("oracle", t0, fmt.Sprintf("n=%d arm=%s path=%s", len(qs), arm, obs.PathString(mask)))
	}
	return out
}

// accountBatch settles a resolved batch: the backend's bulk arm or the
// per-query pool filled every valid non-self out slot (and the backend
// counted them in its own path counters); this serial pass mirrors the
// per-query path's oracle-level semantics, so a batch reports the same
// counts and stretch samples whichever arm served it and at any worker
// count. Invalid queries get the sentinel Answer and no accounting, self
// queries count as queries but take no resolution path, backend-served
// queries count and feed the deterministic stretch sampler in batch
// order. The k accounted queries claim k consecutive sequence numbers
// with one atomic add, and latency is accounted as the batch's wall time
// amortized uniformly over them, in one histogram call.
func (o *Oracle) accountBatch(qs []Query, out []Answer, t0 time.Time) {
	n := int32(o.n)
	invalid := func(q Query) bool { return q.U < 0 || q.V < 0 || q.U >= n || q.V >= n }
	k := 0
	for qi, q := range qs {
		switch {
		case invalid(q):
			out[qi] = Answer{U: q.U, V: q.V, Dist: graph.Unreachable, Bound: graph.Unreachable}
		case q.U == q.V:
			out[qi] = Answer{U: q.U, V: q.V, Exact: true}
			k++
		default:
			k++
		}
	}
	if k == 0 {
		return
	}
	o.latency.ObserveN(time.Since(t0).Seconds()/float64(k), int64(k))
	seq := o.queries.Add(int64(k)) - int64(k)
	for qi, q := range qs {
		if invalid(q) {
			continue
		}
		seq++
		if q.U != q.V && out[qi].Exact {
			o.maybeSampleStretch(seq, q.U, q.V, out[qi].Dist)
		}
	}
}

// answerMany is the per-query arm: the worker pool resolves every valid
// non-self query through Backend.Dist and leaves the other slots, and all
// accounting, to accountBatch. It returns the OR of the resolution-path
// bits taken; each worker folds its chunk's bits into its own mask byte,
// so the per-query path pays no atomics.
func (o *Oracle) answerMany(qs []Query, out []Answer) uint8 {
	n := int32(o.n)
	masks := make([]uint8, o.workers)
	graph.ParallelRangeWorkers(len(qs), o.workers, func(w, lo, hi int) {
		var mask uint8
		for j := lo; j < hi; j++ {
			q := qs[j]
			if q.U < 0 || q.V < 0 || q.U >= n || q.V >= n || q.U == q.V {
				continue
			}
			var p uint8
			out[j], p = o.backend.Dist(q.U, q.V)
			mask |= p
		}
		masks[w] |= mask
	})
	var mask uint8
	for _, m := range masks {
		mask |= m
	}
	return mask
}
