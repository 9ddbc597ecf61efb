// Package check is the differential correctness harness: deliberately
// naive reference implementations of everything the optimized serving and
// evaluation paths compute (exact all-pairs distances by repeated BFS,
// brute-force edge/pair stretch, brute-force node-congestion accounting,
// realized stretch folded from the exact matrices), a randomized
// differential runner that generates graphs from every internal/gen
// family and asserts optimized == reference, structural invariant
// checkers callable from any test, and fuzz targets for the dcserve line
// protocol and the graphio reader.
//
// The contract it enforces is the one distance-oracle papers state as the
// definition of correctness: agreement with the exact distance matrix.
// Every optimized path — oracle.Dist / AnswerBatch (every backend), the
// oracle's realized-stretch sampler,
// spanner.Verify*StretchOpts and routing.NodeCongestion* at every worker
// count — must agree bit-for-bit with its naive reference on every
// generator family. The references are kept obviously correct (plain
// loops, no scratch reuse, no parallelism) and are never imported by
// serving code.
//
// Everything is deterministic in Options.Seed: a reported divergence
// prints the family and seed that reproduce it (`dccheck -families F
// -seed S`), and fixed divergences are pinned by seed in regression
// tests. See DESIGN.md §10.
package check

import (
	"fmt"
	"sort"
	"strings"
)

// Divergence records one optimized-vs-reference disagreement found by the
// runner, with enough context to reproduce it from the command line.
type Divergence struct {
	Family string // generator family ("" for family-independent checks)
	Check  string // which differential check fired
	Seed   uint64 // the runner seed that reproduces it
	Detail string // what disagreed, with the offending values
}

func (d Divergence) String() string {
	fam := d.Family
	if fam == "" {
		fam = "-"
	}
	return fmt.Sprintf("[%s] %s (seed %d): %s", fam, d.Check, d.Seed, d.Detail)
}

// Report is the outcome of one differential run.
type Report struct {
	Families    int // generator families swept
	Checks      int // individual assertions evaluated
	Divergences []Divergence
	// tally counts the assertions evaluated per (family, check) label;
	// its values sum to Checks.
	tally map[label]int
}

// label names one (family, check) context of the runner; family is ""
// for family-independent checks.
type label struct{ family, check string }

// OK reports whether the run found no divergences.
func (r Report) OK() bool { return len(r.Divergences) == 0 }

func (r Report) String() string {
	return fmt.Sprintf("families=%d checks=%d divergences=%d",
		r.Families, r.Checks, len(r.Divergences))
}

// TallyTSV renders the number of assertions per (family, check) label as
// one "family<TAB>check<TAB>count" line each, sorted by family then check,
// with "-" for a family-independent check. Two runs evaluated the same
// assertions exactly when their tallies are byte-identical, so a diff of
// two tallies itemizes a count change.
func (r Report) TallyTSV() []byte {
	lines := make([]string, 0, len(r.tally))
	for l, n := range r.tally {
		fam := l.family
		if fam == "" {
			fam = "-"
		}
		lines = append(lines, fmt.Sprintf("%s\t%s\t%d\n", fam, l.check, n))
	}
	sort.Strings(lines) // '\t' sorts below every name character
	return []byte(strings.Join(lines, ""))
}
