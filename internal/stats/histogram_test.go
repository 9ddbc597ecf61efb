package stats

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %v, want 0", got)
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram stats not all zero: count=%d sum=%v mean=%v max=%v",
			h.Count(), h.Sum(), h.Mean(), h.Max())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(1.5)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		// The sample lives in bucket (1, 2]; any quantile must land there.
		if got <= 1 || got > 2 {
			t.Errorf("Quantile(%v) = %v, want in (1, 2]", q, got)
		}
	}
	if h.Count() != 1 || h.Sum() != 1.5 || h.Max() != 1.5 {
		t.Errorf("count=%d sum=%v max=%v, want 1, 1.5, 1.5", h.Count(), h.Sum(), h.Max())
	}
}

func TestHistogramAllSameBucket(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	for i := 0; i < 100; i++ {
		h.Observe(15)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := h.Quantile(q)
		if got <= 10 || got > 20 {
			t.Errorf("Quantile(%v) = %v, want in (10, 20]", q, got)
		}
	}
	// Quantiles inside one bucket must be monotone in q.
	if h.Quantile(0.1) > h.Quantile(0.9) {
		t.Errorf("quantiles not monotone: q10=%v > q90=%v", h.Quantile(0.1), h.Quantile(0.9))
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(50)
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("overflow Quantile(0.99) = %v, want max observed 100", got)
	}
	if got := h.Max(); got != 100 {
		t.Errorf("Max = %v, want 100", got)
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 12)) // 1, 2, 4, ..., 2048
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	p50 := h.Quantile(0.5)
	p99 := h.Quantile(0.99)
	// True p50 = 500 (bucket (256,512]); true p99 = 990 (bucket (512,1024]).
	if p50 < 256 || p50 > 512 {
		t.Errorf("p50 = %v, want within (256, 512]", p50)
	}
	if p99 < 512 || p99 > 1024 {
		t.Errorf("p99 = %v, want within (512, 1024]", p99)
	}
	if math.Abs(h.Mean()-500.5) > 1e-9 {
		t.Errorf("mean = %v, want 500.5", h.Mean())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewLatencyHistogram()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100+1) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	wantSum := float64(workers) * per * 50.5 * 1e-6
	if math.Abs(h.Sum()-wantSum)/wantSum > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestExpBucketsPanics(t *testing.T) {
	for _, c := range []struct {
		start, factor float64
		n             int
	}{
		{0, 2, 3}, {1, 1, 3}, {1, 2, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExpBuckets(%v, %v, %d) did not panic", c.start, c.factor, c.n)
				}
			}()
			ExpBuckets(c.start, c.factor, c.n)
		}()
	}
}

// ObserveN(v, k) leaves the histogram where k Observe(v) calls do: the
// same count, buckets, max and quantiles, and the same sum up to the
// rounding of adding v·k once instead of v k times.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	values := []float64{0, 3e-7, 2.5e-5, 1.7e-3, 0.42, 50} // 50 s overflows
	for _, k := range []int64{1, 2, 7, 512} {
		one, many := NewLatencyHistogram(), NewLatencyHistogram()
		for _, v := range values {
			one.ObserveN(v, k)
			for i := int64(0); i < k; i++ {
				many.Observe(v)
			}
		}
		got, want := one.Buckets(), many.Buckets()
		if got.Count != want.Count || got.Max != want.Max {
			t.Fatalf("k=%d: count=%d max=%v, want %d, %v", k, got.Count, got.Max, want.Count, want.Max)
		}
		for i := range want.Cumulative {
			if got.Cumulative[i] != want.Cumulative[i] {
				t.Fatalf("k=%d: bucket %d holds %d cumulative, want %d", k, i, got.Cumulative[i], want.Cumulative[i])
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if a, b := got.Quantile(q), want.Quantile(q); a != b {
				t.Errorf("k=%d: Quantile(%v) = %v, want %v", k, q, a, b)
			}
		}
		if math.Abs(got.Sum-want.Sum) > 1e-12*math.Abs(want.Sum) {
			t.Errorf("k=%d: sum = %v, want %v", k, got.Sum, want.Sum)
		}
	}
}

func TestObserveNDropsNaNAndNonPositiveCounts(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.ObserveN(math.NaN(), 5)
	h.ObserveN(1.5, 0)
	h.ObserveN(1.5, -3)
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("dropped observations were recorded: count=%d sum=%v max=%v", h.Count(), h.Sum(), h.Max())
	}
	h.ObserveN(1.5, 4)
	if h.Count() != 4 || h.Sum() != 6 || h.Max() != 1.5 {
		t.Fatalf("count=%d sum=%v max=%v, want 4, 6, 1.5", h.Count(), h.Sum(), h.Max())
	}
}

func TestHistogramConcurrentObserveN(t *testing.T) {
	h := NewLatencyHistogram()
	const workers, per, k = 8, 2000, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := float64(i%100+1) * 1e-6
				if w%2 == 0 {
					h.ObserveN(v, k)
				} else {
					h.Observe(v)
				}
			}
		}(w)
	}
	wg.Wait()
	const wantCount = workers / 2 * per * (k + 1)
	if h.Count() != wantCount || h.Buckets().Count != wantCount {
		t.Fatalf("count = %d (buckets %d), want %d", h.Count(), h.Buckets().Count, wantCount)
	}
	wantSum := float64(wantCount) * 50.5e-6
	if math.Abs(h.Sum()-wantSum)/wantSum > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
	top := 100
	if want := float64(top) * 1e-6; h.Max() != want {
		t.Errorf("max = %v, want %v", h.Max(), want)
	}
}
