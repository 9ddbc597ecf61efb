package stats

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram safe for concurrent Observe calls.
// Buckets are defined by their upper bounds; a value v lands in the first
// bucket whose bound is >= v, and values above every bound land in an
// implicit overflow bucket. Quantiles are answered by linear interpolation
// inside the owning bucket, which is exact enough for latency reporting
// (the intended use: the oracle's per-query latency and packetsim's
// per-packet delivery steps) while keeping Observe lock-free.
type Histogram struct {
	bounds []float64      // sorted ascending, len B
	counts []atomic.Int64 // len B+1; counts[B] is the overflow bucket
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	maxObs atomic.Uint64 // float64 bits of the maximum observed value
}

// NewHistogram builds a histogram from sorted ascending bucket upper
// bounds. It panics on empty or unsorted bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not strictly increasing at %d", i))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.maxObs.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// ExpBuckets returns n strictly increasing bounds start, start·factor,
// start·factor², … — the usual latency bucket layout. It panics unless
// start > 0, factor > 1, and n >= 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("stats: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// NewLatencyHistogram returns a histogram sized for query latencies in
// seconds: 60 exponential buckets from 100 ns to ~3.5 s.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(ExpBuckets(100e-9, 1.34, 60))
}

// bucketFor returns the index of the bucket owning v (binary search).
func (h *Histogram) bucketFor(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo // == len(bounds) for overflow
}

// Observe records one value. Safe for concurrent use. NaN observations
// are dropped (not counted): a single NaN would otherwise poison the
// CAS-accumulated sum and every Mean/Stats report derived from it.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records k observations of the same value v — the state k
// Observe(v) calls leave (Count, buckets, Max, quantiles; Sum up to
// rounding, since it adds v·k once) at the cost of one call. Safe for
// concurrent use. NaN values and k <= 0 are dropped.
func (h *Histogram) ObserveN(v float64, k int64) {
	if math.IsNaN(v) || k <= 0 {
		return
	}
	h.counts[h.bucketFor(v)].Add(k)
	h.total.Add(k)
	add := v * float64(k)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + add)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.maxObs.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxObs.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Max returns the maximum observed value (0 when empty). A racing read
// that lands between a concurrent Observe's count increment and its max
// update reports 0 rather than the -Inf the max register is seeded with.
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return sanitizeMax(math.Float64frombits(h.maxObs.Load()))
}

// sanitizeMax clamps the seeded -Inf (and any NaN) out of a max register
// read, so no consumer ever renders a non-finite maximum for a histogram
// that has observations.
func sanitizeMax(m float64) float64 {
	if math.IsNaN(m) || math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Quantile returns an estimate of the q-th quantile (q in [0, 1]) by
// interpolating inside the bucket holding the rank-⌈q·n⌉ observation. An
// empty histogram reports 0. Values in the overflow bucket report the
// maximum observed value. Concurrent Observe calls during Quantile yield a
// best-effort snapshot.
func (h *Histogram) Quantile(q float64) float64 { return h.Buckets().Quantile(q) }

// HistogramBuckets is a structured point-in-time snapshot of a Histogram:
// bucket bounds with cumulative counts (the Prometheus histogram shape)
// plus the observation sum, count, and maximum. Count equals the last
// cumulative entry by construction, so a snapshot is always internally
// consistent even when Observe calls race the read.
type HistogramBuckets struct {
	// Bounds are the bucket upper bounds, ascending; an implicit +Inf
	// overflow bucket follows the last bound.
	Bounds []float64
	// Cumulative[i] counts observations <= Bounds[i]; the final entry
	// (index len(Bounds)) includes the overflow bucket and equals Count.
	Cumulative []int64
	Count      int64
	Sum        float64
	Max        float64 // maximum observed value; 0 when empty
}

// Buckets snapshots the histogram. The per-bucket counts are loaded once
// each and Count is derived from them (not from the live total), so the
// snapshot never reports a cumulative series that disagrees with its own
// total.
func (h *Histogram) Buckets() HistogramBuckets {
	b := HistogramBuckets{
		Bounds:     h.bounds, // immutable after construction
		Cumulative: make([]int64, len(h.counts)),
	}
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		b.Cumulative[i] = running
	}
	b.Count = running
	b.Sum = math.Float64frombits(h.sum.Load())
	if running > 0 {
		b.Max = sanitizeMax(math.Float64frombits(h.maxObs.Load()))
	}
	return b
}

// Mean returns the snapshot's average observed value (0 when empty).
func (b HistogramBuckets) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// Quantile answers the q-th quantile from the snapshot with the same
// interpolation rule as Histogram.Quantile. q is clamped to [0, 1] (NaN
// counts as 1). Ranks landing in the implicit +Inf overflow bucket report
// the maximum observed value, floored at the last finite bound — so a
// snapshot whose Max register is unset (zero value, or a read racing the
// first Observe) still answers a finite, monotone quantile instead of 0,
// -Inf, or NaN.
func (b HistogramBuckets) Quantile(q float64) float64 {
	if b.Count == 0 {
		return 0
	}
	if math.IsNaN(q) || q > 1 {
		q = 1
	}
	if q < 0 {
		q = 0
	}
	rank := int64(math.Ceil(q * float64(b.Count)))
	if rank < 1 {
		rank = 1
	}
	var prev int64
	for i, cum := range b.Cumulative {
		if cum < rank {
			prev = cum
			continue
		}
		if i == len(b.Bounds) {
			return b.overflowValue()
		}
		inBucket := cum - prev
		lower := 0.0
		if i > 0 {
			lower = b.Bounds[i-1]
		}
		upper := b.Bounds[i]
		// Position of the requested rank inside this bucket, in (0, 1].
		frac := float64(rank-prev) / float64(inBucket)
		return lower + (upper-lower)*frac
	}
	return b.overflowValue()
}

// overflowValue is the representative value of the +Inf overflow bucket:
// the observed maximum when it is consistent (anything in the overflow
// bucket must exceed the last bound), otherwise the last finite bound.
func (b HistogramBuckets) overflowValue() float64 {
	if len(b.Bounds) == 0 {
		return sanitizeMax(b.Max)
	}
	last := b.Bounds[len(b.Bounds)-1]
	if b.Max > last { // false for NaN, -Inf, and unset-zero Max
		return b.Max
	}
	return last
}

// Snapshot renders the headline quantiles, convenient for logs.
func (h *Histogram) Snapshot() string {
	b := h.Buckets()
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g max=%.3g",
		b.Count, b.Mean(), b.Quantile(0.50), b.Quantile(0.95), b.Quantile(0.99), b.Max)
}
