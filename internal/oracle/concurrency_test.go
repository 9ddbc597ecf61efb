package oracle

import (
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestAnswerBatchConcurrentHammer drives AnswerBatch from many goroutines
// at once (run with -race) and asserts every concurrent result is
// identical to the sequential answer for the same query. This is the
// oracle's core concurrency contract: scheduling and pooled-scratch reuse
// must never change an answer.
func TestAnswerBatchConcurrentHammer(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 23)
	o, err := New(dc, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	pool := make([]Query, 2000)
	for i := range pool {
		pool[i] = Query{U: int32(r.Intn(128)), V: int32(r.Intn(128))}
	}
	// Sequential ground truth, computed on a second oracle.
	ref, err := New(dc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Answer, len(pool))
	for i, q := range pool {
		w, err := ref.Dist(q.U, q.V)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}

	const hammers = 8
	var wg sync.WaitGroup
	errs := make(chan string, hammers)
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			// Each hammer runs a rotated view of the pool so different
			// goroutines compute the same keys in different orders. Batches
			// stay below bulkMinBatch so every query takes the per-query
			// search path — the contract this test hammers; the bulk sweep
			// path has its own differential in batch_test.go.
			qs := make([]Query, len(pool))
			for i := range pool {
				qs[i] = pool[(i+h*251)%len(pool)]
			}
			const chunk = bulkMinBatch - 1
			for lo := 0; lo < len(qs); lo += chunk {
				hi := lo + chunk
				if hi > len(qs) {
					hi = len(qs)
				}
				got := o.AnswerBatch(qs[lo:hi])
				for i := range got {
					if got[i] != want[(lo+i+h*251)%len(pool)] {
						errs <- "concurrent answer diverged from sequential"
						return
					}
				}
			}
		}(h)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	s := o.Stats()
	if s.Queries != hammers*int64(len(pool)) {
		t.Fatalf("queries = %d, want %d", s.Queries, hammers*len(pool))
	}
}

// TestConcurrentDistAndRoute mixes Dist, Route, and Stats calls across
// goroutines to exercise every lock and atomic under -race.
func TestConcurrentDistAndRoute(t *testing.T) {
	dc := buildTestSpanner(t, 64, 18, 29)
	o, err := New(dc, Options{Workers: 4, SampleEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 1)
			for i := 0; i < 400; i++ {
				u := int32(r.Intn(64))
				v := int32(r.Intn(64))
				if i%3 == 0 {
					if _, _, err := o.Route(u, v); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := o.Dist(u, v); err != nil {
						t.Error(err)
						return
					}
				}
				if i%97 == 0 {
					_ = o.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	s := o.Stats()
	if s.StretchSamples == 0 {
		t.Fatal("realized-stretch sampling recorded nothing")
	}
	if s.RealizedAlpha > 3 {
		t.Fatalf("realized alpha %.3f exceeds certified 3", s.RealizedAlpha)
	}
}
