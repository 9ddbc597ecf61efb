package spanner

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// BaswanaSen computes a (2k−1)-distance spanner of an unweighted graph
// with expected O(k·n^{1+1/k}) edges, following the randomized clustering
// algorithm of Baswana & Sen [4] (the paper's reference point for
// classical distance-only spanners).
//
// Phase 1 runs k−1 rounds of cluster sampling with probability n^{−1/k};
// phase 2 connects every vertex to each adjacent surviving cluster. Each
// clustering round and the joining phase open spans under parent (nil
// disables tracing at zero cost).
func BaswanaSen(g *graph.Graph, k int, r *rng.RNG, parent *obs.Span) (*Spanner, error) {
	if k < 1 {
		return nil, fmt.Errorf("spanner: BaswanaSen needs k >= 1")
	}
	n := g.N()
	if k == 1 {
		// A 1-spanner must preserve all distances exactly; the only
		// guaranteed subgraph is G itself.
		return &Spanner{Base: g, H: g, Primary: g, Algorithm: "baswana-sen-k1"}, nil
	}
	p := math.Pow(float64(n), -1.0/float64(k))
	bsp := parent.Start("baswana-sen")
	defer bsp.End()
	bsp.SetKV("k", k)

	// cluster[v] = id of v's cluster, or −1 once v has been discarded.
	cluster := make([]int32, n)
	for v := range cluster {
		cluster[v] = int32(v)
	}
	// center[c] tracks a representative used only for sampling stability.
	alive := make([]bool, n) // vertex still participates
	for v := range alive {
		alive[v] = true
	}

	spannerEdges := make(map[graph.Edge]bool)
	addEdge := func(u, w int32) { spannerEdges[graph.Edge{U: u, V: w}.Normalize()] = true }

	for phase := 1; phase <= k-1; phase++ {
		csp := bsp.Start(fmt.Sprintf("cluster-phase-%d", phase))
		// Sample clusters.
		sampled := make(map[int32]bool)
		clusterIDs := make(map[int32]bool)
		for v := 0; v < n; v++ {
			if alive[v] && cluster[v] >= 0 {
				clusterIDs[cluster[v]] = true
			}
		}
		for c := range clusterIDs {
			if r.Bernoulli(p) {
				sampled[c] = true
			}
		}
		newCluster := make([]int32, n)
		copy(newCluster, cluster)
		for v := int32(0); v < int32(n); v++ {
			if !alive[v] || cluster[v] < 0 {
				continue
			}
			if sampled[cluster[v]] {
				continue // v's cluster survives; v stays put
			}
			// Find neighbors grouped by adjacent cluster.
			var sampledNbr int32 = -1
			adjacent := make(map[int32]int32) // cluster -> one witness neighbor
			for _, w := range g.Neighbors(v) {
				if !alive[w] || cluster[w] < 0 || cluster[w] == cluster[v] {
					continue
				}
				c := cluster[w]
				if _, seen := adjacent[c]; !seen {
					adjacent[c] = w
				}
				if sampled[c] && sampledNbr < 0 {
					sampledNbr = w
				}
			}
			if sampledNbr >= 0 {
				// Join the sampled cluster through one edge.
				addEdge(v, sampledNbr)
				newCluster[v] = cluster[sampledNbr]
			} else {
				// No adjacent sampled cluster: add one edge per adjacent
				// cluster and retire v.
				for _, w := range adjacent {
					addEdge(v, w)
				}
				newCluster[v] = -1
				alive[v] = false
			}
		}
		cluster = newCluster
		csp.SetKV("sampledClusters", len(sampled))
		csp.SetKV("spannerEdges", len(spannerEdges))
		csp.End()
	}

	// Phase 2: vertex–cluster joining. Every vertex (including retired
	// ones) adds one edge to each adjacent surviving cluster.
	jsp := bsp.Start("vertex-cluster-join")
	for v := int32(0); v < int32(n); v++ {
		adjacent := make(map[int32]int32)
		for _, w := range g.Neighbors(v) {
			if alive[w] && cluster[w] >= 0 && (!alive[v] || cluster[w] != cluster[v]) {
				if _, seen := adjacent[cluster[w]]; !seen {
					adjacent[cluster[w]] = w
				}
			}
		}
		for _, w := range adjacent {
			addEdge(v, w)
		}
	}
	// Intra-cluster edges: each vertex that joined a cluster added its
	// connecting edge along the way; surviving clusters additionally keep
	// a spanning star via the edges accumulated during joins. (Vertices
	// that stayed in their own singleton cluster need no edge.)
	jsp.SetKV("spannerEdges", len(spannerEdges))
	jsp.End()

	h := g.FilterEdges(func(e graph.Edge) bool { return spannerEdges[e] })
	return &Spanner{Base: g, H: h, Primary: h, Algorithm: fmt.Sprintf("baswana-sen-k%d", k)}, nil
}

// Greedy computes the classical greedy alpha-spanner (Althöfer et al.):
// scan edges in canonical order and keep an edge only if the current
// spanner distance between its endpoints exceeds alpha. The output is
// always an alpha-distance spanner; for alpha = 2k−1 it has O(n^{1+1/k})
// edges. O(m · BFS) — intended for baseline-scale graphs.
func Greedy(g *graph.Graph, alpha int) *Spanner {
	n := g.N()
	kept := make([]graph.Edge, 0, n)
	// Incremental adjacency for the growing spanner.
	adj := make([][]int32, n)
	var distLimited func(u, v int32) bool // dist_H(u,v) <= alpha?
	dist := make([]int32, n)
	stamp := make([]int32, n)
	gen := int32(0)
	queue := make([]int32, 0, 64)
	distLimited = func(u, v int32) bool {
		gen++
		queue = queue[:0]
		queue = append(queue, u)
		dist[u] = 0
		stamp[u] = gen
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			if dist[x] >= int32(alpha) {
				break
			}
			for _, w := range adj[x] {
				if stamp[w] == gen {
					continue
				}
				stamp[w] = gen
				dist[w] = dist[x] + 1
				if w == v {
					return true
				}
				queue = append(queue, w)
			}
		}
		return false
	}
	for _, e := range g.Edges() {
		if !distLimited(e.U, e.V) {
			kept = append(kept, e)
			adj[e.U] = append(adj[e.U], e.V)
			adj[e.V] = append(adj[e.V], e.U)
		}
	}
	keptSet := make(map[graph.Edge]bool, len(kept))
	for _, e := range kept {
		keptSet[e] = true
	}
	h := g.FilterEdges(func(e graph.Edge) bool { return keptSet[e] })
	return &Spanner{Base: g, H: h, Primary: h, Algorithm: fmt.Sprintf("greedy-%d", alpha)}
}
