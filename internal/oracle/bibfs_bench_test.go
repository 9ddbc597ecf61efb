package oracle

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spanner"
)

var biBFSSink int32

// BenchmarkBiBFS times one bidirectional search (ns/op is ns per search)
// over uniform pairs on servebench's input shapes: churn_rw's maintained
// spanner H and its base graph G (32-regular, n=8192), which the stretch
// sampler searches, and routed_batch's G (300-regular, n=4096). It also
// times landmark-bibfs's two batch arms on churn_rw's H, one 512-query
// batch per op, with 2 and with 16 queries per source: the bulk
// multi-source sweep (AnswerBatch) and the per-query pool (answerMany).
func BenchmarkBiBFS(b *testing.B) {
	churnG := sync.OnceValue(func() *graph.Graph { return gen.MustRandomRegular(8192, 32, rng.New(1)) })
	churnH := sync.OnceValue(func() *graph.Graph {
		return spanner.NewIncremental(churnG(), spanner.IncrementalOptions{Seed: 1}).H()
	})
	routedG := sync.OnceValue(func() *graph.Graph { return gen.MustRandomRegular(4096, 300, rng.New(1)) })

	for _, in := range []struct {
		name  string
		graph func() *graph.Graph
	}{{"churn_rw_H", churnH}, {"churn_rw_G", churnG}, {"routed_batch_G", routedG}} {
		b.Run(in.name, func(b *testing.B) {
			g := in.graph()
			n := g.N()
			r := rng.New(2)
			pairs := make([]Query, 4096)
			for i := range pairs {
				u, v := int32(r.Intn(n)), int32(r.Intn(n))
				for u == v {
					v = int32(r.Intn(n))
				}
				pairs[i] = Query{U: u, V: v}
			}
			sc := newBiScratch(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				biBFSSink = sc.distance(g, p.U, p.V)
			}
		})
	}

	for _, perSource := range []int{2, 16} {
		batch := func() []Query {
			n := churnH().N()
			r := rng.New(3)
			qs := make([]Query, 0, 512)
			for len(qs) < cap(qs) {
				u := int32(r.Intn(n))
				for k := 0; k < perSource; k++ {
					v := int32(r.Intn(n))
					for u == v {
						v = int32(r.Intn(n))
					}
					qs = append(qs, Query{U: u, V: v})
				}
			}
			return qs
		}
		b.Run(fmt.Sprintf("batch512_per%d/bulk", perSource), func(b *testing.B) {
			qs, h := batch(), churnH()
			be := newBiBFSBackend(h, graph.Workers())
			out := make([]Answer, len(qs))
			if _, ok := be.AnswerBatch(qs, out); !ok {
				b.Fatal("the bulk arm declined the batch")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				be.AnswerBatch(qs, out)
			}
		})
		b.Run(fmt.Sprintf("batch512_per%d/perquery", perSource), func(b *testing.B) {
			qs, h := batch(), churnH()
			o, err := NewFromGraphs(churnG(), h, 0, Options{Backend: BackendLandmarkBiBFS, SampleEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			out := make([]Answer, len(qs))
			o.answerMany(qs, out)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.answerMany(qs, out)
			}
		})
	}
}
