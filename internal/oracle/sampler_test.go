package oracle

import (
	"testing"

	"repro/internal/rng"
)

// The realized-stretch sampler searches G on pooled scratch: on a warm
// oracle that samples every query, a Dist allocates nothing on either
// serving backend, and sampling adds no allocation to an exact-cached
// batch.
func TestSamplerAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled scratch reallocates")
	}
	dc := buildTestSpanner(t, 128, 32, 17)
	n := dc.Graph().N()
	mk := func(backend string, sampleEvery int) *Oracle {
		o, err := New(dc, Options{Backend: backend, Workers: 1, SampleEvery: sampleEvery})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	for _, backend := range []string{BackendLandmarkBiBFS, BackendExactCached} {
		o := mk(backend, 1)
		u, v := int32(1), int32(n-2)
		o.Dist(u, v) // warm the pools
		if a := testing.AllocsPerRun(200, func() { o.Dist(u, v) }); a != 0 {
			t.Errorf("%s: a sampled Dist allocates %.1f times, want 0", backend, a)
		}
		if s := o.Stats().StretchSamples; s < 200 {
			t.Errorf("%s: %d stretch samples, want every query sampled", backend, s)
		}
	}

	r := rng.New(3)
	qs := make([]Query, 256)
	for i := range qs {
		qs[i] = Query{U: int32(r.Intn(n)), V: int32(r.Intn(n))}
	}
	batchAllocs := func(sampleEvery int) float64 {
		o := mk(BackendExactCached, sampleEvery)
		o.AnswerBatch(qs)
		return testing.AllocsPerRun(50, func() { o.AnswerBatch(qs) })
	}
	sampled, unsampled := batchAllocs(1), batchAllocs(-1)
	if sampled > unsampled {
		t.Errorf("a sampled 256-query exact-cached batch allocates %.1f times, unsampled %.1f", sampled, unsampled)
	}
}
