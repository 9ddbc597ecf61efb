package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// workload is one serving process, its input and its traffic mix. The
// README records why each exists and which layers it loads.
type workload struct {
	name    string
	n, d    int    // random d-regular input graph on n vertices
	backend string // pinned -oracle-backend
	router  bool   // dcrouter -spawn 2 instead of dcserve
	dynamic bool   // dcserve -dynamic with a writer beside the readers
	// readRate is a generous guess of read frames per second on the
	// 2-vCPU host; it only sizes the preallocated sample buffers.
	readRate float64
	// Warm-up ops per read and per update goroutine: about a second's
	// worth on the 2-vCPU host.
	warmReads, warmUpdates int
}

var workloads = []workload{
	{name: "point_zipf", n: 4096, d: 300, backend: "landmark-bibfs", readRate: 150000, warmReads: 4000},
	{name: "routed_batch", n: 4096, d: 300, backend: "exact-cached", router: true, readRate: 5000, warmReads: 800},
	{name: "churn_rw", n: 8192, d: 32, backend: "landmark-bibfs", dynamic: true, readRate: 200, warmReads: 40, warmUpdates: 20},
}

// Traffic shapes. All load comes from one process over at most one
// connection per core of the 2-vCPU host; requests beyond one per
// connection stay in flight through the wire client's pipelining.
const (
	readConns     = 2    // point_zipf and routed_batch
	distInflight  = 8    // per connection: the server's per-connection cap
	zipfS         = 0.99 // point_zipf endpoint skew
	batchInflight = 2    // routed_batch frames in flight per connection
	batchSize     = 512  // queries per routed_batch frame
	churnInflight = 4    // churn_rw reads in flight on the reader connection
	// churnWriters is the number of churn_rw toggles in flight on the
	// writer connection. With two, the next update always waits on the
	// engine's lock when one finishes, so each update lets exactly the
	// reads queued behind it through; with one, reads raced the writer's
	// next request and read throughput swung 90-121 q/s between runs of
	// the same seed.
	churnWriters = 2
	fleetWorkers = 2 // dcrouter -spawn

	distStreamLen  = 1 << 16 // queries per point_zipf load goroutine, cycled
	batchStreamLen = 64      // frames per routed_batch load goroutine, cycled
	churnReadLen   = 1 << 14 // queries per churn_rw reader goroutine, cycled
	togglePairsN   = 4096    // churn_rw toggle list, cycled
)

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed derives an independent seed for one named input from the run
// seed, so that every stream and graph is a function of (seed, tag, i).
func subSeed(seed uint64, tag string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", tag, i)
	x := seed ^ h.Sum64()
	// splitmix64 finaliser
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// spannerSeed is the -seed the serving process builds its spanner with;
// the correctness gate rebuilds H in-process with the same value.
func spannerSeed(seed uint64) uint64 { return subSeed(seed, "spanner", 0) }

// inputGraph generates the workload's input graph. Workloads with the same
// shape share the graph.
func inputGraph(w workload, seed uint64) (*graph.Graph, error) {
	return gen.RandomRegular(w.n, w.d, rng.New(subSeed(seed, fmt.Sprintf("regular-%d-%d", w.n, w.d), 0)))
}

// writeGraph writes g as an edge list at path.
func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := graphio.WriteEdgeList(bw, g); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// zipfStreams returns one query stream per load goroutine with both
// endpoints drawn from Zipf(zipfS) over a seeded permutation of the
// vertices, so the hot vertices differ between seeds.
func zipfStreams(n int, seed uint64, streams, length int) [][]oracle.Query {
	perm := rng.New(subSeed(seed, "zipf-perm", 0)).Perm(n)
	z := rng.NewZipf(zipfS, n)
	out := make([][]oracle.Query, streams)
	for i := range out {
		r := rng.New(subSeed(seed, "zipf-stream", i))
		out[i] = pairStream(r, length, func() int32 { return int32(perm[z.Sample(r)]) })
	}
	return out
}

// uniformStreams returns query streams with uniform endpoints.
func uniformStreams(n int, seed uint64, tag string, streams, length int) [][]oracle.Query {
	out := make([][]oracle.Query, streams)
	for i := range out {
		r := rng.New(subSeed(seed, tag, i))
		out[i] = pairStream(r, length, func() int32 { return int32(r.Intn(n)) })
	}
	return out
}

// pairStream draws length queries with distinct endpoints.
func pairStream(r *rng.RNG, length int, draw func() int32) []oracle.Query {
	qs := make([]oracle.Query, length)
	for i := range qs {
		u, v := draw(), draw()
		for v == u {
			v = draw()
		}
		qs[i] = oracle.Query{U: u, V: v}
	}
	return qs
}

// togglePairs returns churn_rw's update list: half present edges of g,
// half absent pairs, shuffled. The writer toggles them in order and
// cycles, so every update applies: a present pair is deleted, an absent
// one inserted.
func togglePairs(g *graph.Graph, seed uint64, count int) []graph.Edge {
	r := rng.New(subSeed(seed, "toggles", 0))
	edges := g.Edges()
	out := make([]graph.Edge, 0, count)
	for _, i := range r.Sample(len(edges), count/2) {
		out = append(out, edges[i])
	}
	seen := map[graph.Edge]bool{}
	n := g.N()
	for len(out) < count {
		e := graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))}.Normalize()
		if e.U == e.V || seen[e] || g.HasEdge(e.U, e.V) {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// edgeTracker follows the live edge set of a dynamic server from the
// updates the benchmark sent it.
type edgeTracker struct {
	base    *graph.Graph
	present map[graph.Edge]bool // current state of every pair toggled so far
	m       int
}

func newEdgeTracker(base *graph.Graph) *edgeTracker {
	return &edgeTracker{base: base, present: map[graph.Edge]bool{}, m: base.M()}
}

// has reports whether e is currently an edge.
func (t *edgeTracker) has(e graph.Edge) bool {
	if p, ok := t.present[e]; ok {
		return p
	}
	return t.base.HasEdge(e.U, e.V)
}

// toggle records that e was inserted (add) or deleted.
func (t *edgeTracker) toggle(e graph.Edge, add bool) {
	t.present[e] = add
	if add {
		t.m++
	} else {
		t.m--
	}
}

// edges returns the current edge set in canonical form: each edge once
// with U < V, sorted.
func (t *edgeTracker) edges() []graph.Edge {
	out := make([]graph.Edge, 0, t.m)
	for _, e := range t.base.Edges() {
		if p, ok := t.present[e]; !ok || p {
			out = append(out, e)
		}
	}
	for e, p := range t.present {
		if p && !t.base.HasEdge(e.U, e.V) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// edgeSetHash is the FNV-1a digest oracle.SnapshotInfo documents: the
// canonical edge list, 8 bytes per edge, little-endian (u, v).
func edgeSetHash(edges []graph.Edge) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, e := range edges {
		u, v := uint32(e.U), uint32(e.V)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		b[4], b[5], b[6], b[7] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}
