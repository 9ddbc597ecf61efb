// Command dccheck runs the differential correctness harness
// (internal/check): every optimized serving and evaluation path is checked
// against its deliberately naive reference on graphs from every
// internal/gen family. Exit status 0 means zero divergences.
//
// Usage:
//
//	dccheck [-quick] [-seed N] [-families a,b,...] [-backend NAME] [-tally FILE] [-list] [-v]
//
// Runs are deterministic in -seed: a reported divergence prints the
// family and seed that reproduce it, and
//
//	dccheck -families <family> -seed <seed>
//
// replays exactly the failing inputs. -tally writes the number of
// assertions per (family, check) label, sorted, one tab-separated line
// each; verify.sh diffs a fresh -quick tally against the committed
// quick.tally, so a change in any count shows as that diff. See
// DESIGN.md §10.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/cliutil"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "smoke-sized graphs and traces (CI / verify.sh)")
		families = flag.String("families", "", "comma-separated family names (default: all)")
		list     = flag.Bool("list", false, "list generator families and exit")
		backend  = flag.String("backend", "", "restrict the oracle-backend sweep to one backend (landmark-bibfs|exact-cached|sparse-hub) and force it through the router differential; empty sweeps all")
		tally    = flag.String("tally", "", "write per-(family, check) assertion counts, sorted, to this file")
		verbose  = flag.Bool("v", false, "per-family progress lines")
	)
	seed := cliutil.RegisterSeedFlag(flag.CommandLine, check.DefaultSeed)
	flag.Parse()

	if *list {
		for _, name := range check.FamilyNames() {
			fmt.Println(name)
		}
		return
	}

	opts := check.Options{Seed: *seed, Quick: *quick, Backend: *backend}
	if *families != "" {
		for _, name := range strings.Split(*families, ",") {
			opts.Families = append(opts.Families, strings.TrimSpace(name))
		}
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dccheck: "+format+"\n", args...)
		}
	}

	t0 := time.Now()
	rep, err := check.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dccheck: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("dccheck: %s in %.1fs (seed %d)\n", rep, time.Since(t0).Seconds(), *seed)
	if *tally != "" {
		if err := os.WriteFile(*tally, rep.TallyTSV(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dccheck: tally: %v\n", err)
			os.Exit(2)
		}
	}
	if !rep.OK() {
		for _, d := range rep.Divergences {
			fmt.Printf("DIVERGENCE %s\n", d)
			fmt.Printf("  reproduce: dccheck -families %s -seed %d\n", d.Family, d.Seed)
		}
		os.Exit(1)
	}
}
