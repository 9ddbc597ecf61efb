// Command dcspan builds a DC-spanner of a generated graph and reports its
// size, certified distance stretch, and matching-routing congestion.
//
// Usage:
//
//	dcspan -gen regular -n 512 -d 96 -algo expander -seed 1
//	dcspan -gen margulis -n 1024 -algo baswana-sen -k 3
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/spanner"
	"repro/internal/spectral"
)

func main() {
	cfg := cliutil.RegisterGraphFlags(flag.CommandLine, "regular", 512, 96, 1)
	algo := flag.String("algo", "expander", "spanner: expander|regular|baswana-sen|greedy|sparsify-uniform|bounded-degree")
	k := flag.Int("k", 2, "Baswana-Sen parameter (stretch 2k-1)")
	alpha := flag.Int("alpha", 3, "greedy spanner stretch / verification stretch")
	certify := flag.Bool("certify", false, "measure spectral expansion of G and H")
	backend := flag.String("oracle-backend", "",
		"also build a distance oracle over H with this backend (landmark-bibfs|exact-cached|sparse-hub|auto) and report its tuner/contract line; empty skips")
	out := flag.String("out", "", "write the spanner to this file")
	format := flag.String("format", "edgelist", "output format: edgelist|dot|spannerdot")
	trace := flag.Bool("trace", false, "print the construction phase tree (wall clock, allocations, per-phase payloads)")
	traceOut := flag.String("trace-out", "", "write the construction phase tree as Chrome trace-event JSON to this file (load in Perfetto / chrome://tracing)")
	prof := cliutil.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()
	defer prof.MustStart()()
	seed := &cfg.Seed

	g := cfg.MustBuild()
	fmt.Printf("G: n=%d m=%d maxDeg=%d connected=%v\n", g.N(), g.M(), g.MaxDegree(), g.Connected())

	var root *obs.Span
	if *trace || *traceOut != "" {
		root = obs.StartSpan("build")
	}
	dc, err := core.Build(g, core.Options{
		Algorithm: core.Algorithm(*algo),
		Seed:      *seed,
		K:         *k,
		Alpha:     *alpha,
		Expander:  spanner.ExpanderOptions{EnsureConnected: true},
		Trace:     root,
	})
	root.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if root != nil && *trace {
		fmt.Print(root.Tree())
	}
	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr == nil {
			ferr = obs.WriteTraceEvents(f, root)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "trace-out:", ferr)
			os.Exit(1)
		}
		fmt.Printf("phase trace written to %s\n", *traceOut)
	}
	h := dc.Graph()
	fmt.Printf("H (%s): m=%d (%.1f%% of G), maxDeg=%d\n",
		*algo, h.M(), 100*float64(h.M())/float64(g.M()), h.MaxDegree())

	verifyAlpha := *alpha
	if *algo == "baswana-sen" {
		verifyAlpha = 2**k - 1
	}
	rep := dc.VerifyDistance(verifyAlpha)
	fmt.Printf("distance stretch ≤ %d: violations=%d maxStretch=%v meanStretch=%.3f\n",
		verifyAlpha, rep.Violations, rep.MaxStretch, rep.MeanStretch)

	// Matching routing over G's edges.
	used := make([]bool, g.N())
	var m []graph.Edge
	for _, e := range g.Edges() {
		if !used[e.U] && !used[e.V] {
			used[e.U] = true
			used[e.V] = true
			m = append(m, e)
		}
	}
	router := dc.Spanner().Router(*seed + 100)
	paths, err := router.RouteMatching(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rt := &routing.Routing{Problem: routing.MatchingProblem(m), Paths: paths}
	fmt.Printf("matching routing: %d pairs, node congestion %d (identity=%d, 3-detours=%d, 2-detours=%d, fallbacks=%d)\n",
		len(m), rt.NodeCongestion(g.N()), router.Identity, router.Detour3, router.Detour2, router.Fallbacks)

	if *backend != "" {
		o, err := oracle.New(dc, oracle.Options{Backend: *backend})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if rep := o.TunerReport(); rep != nil {
			fmt.Printf("oracle tuner:\n%s", rep)
		}
		bs := o.BackendStats()
		fmt.Printf("oracle: backend=%s stretch-bound=%d mem=%.1fKiB\n",
			bs.Name, bs.StretchBound, float64(bs.MemoryBytes)/1024)
	}

	if *certify {
		r := rng.New(*seed + 7)
		lamG, l1G := spectral.Expansion(g, 300, r)
		lamH, l1H := spectral.Expansion(h, 300, r)
		fmt.Printf("expansion: G λ=%.2f (λ1=%.2f)   H λ=%.2f (λ1=%.2f)\n", lamG, l1G, lamH, l1H)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		switch *format {
		case "edgelist":
			err = graphio.WriteEdgeList(f, h)
		case "dot":
			err = graphio.WriteDOT(f, h, *algo)
		case "spannerdot":
			err = graphio.WriteSpannerDOT(f, g, h, *algo)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s)\n", *out, *format)
	}
}
