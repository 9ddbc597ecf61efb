package server

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// TestHandleTable drives the protocol layer line by line — the coverage
// the old cmd/dcserve handle/parsePair never had.
func TestHandleTable(t *testing.T) {
	o := testOracle(t)
	cases := []struct {
		name  string
		input string
		want  string // regexp anchored to the full (single) response line; "" = no response
	}{
		{"dist self", "dist 2 2", `^dist 2 2 = 0 exact=true bound=0 us=\d+\.\d$`},
		{"dist normal", "dist 0 100", `^dist 0 100 = \d+ exact=true bound=\d+ us=\d+\.\d$`},
		{"empty line", "", ``},
		{"whitespace only", "   \t  ", ``},
		{"comment", "# a comment", ``},
		{"missing args", "dist 1", `^err want "dist <u> <v>"$`},
		{"too many args", "dist 1 2 3", `^err want "dist <u> <v>"$`},
		{"bad vertex", "dist a b", `^err bad vertex in \[a b\]$`},
		{"negative vertex", "dist -1 5", `^err oracle: query \(-1,5\) out of range \[0,128\)$`},
		{"out of range", "dist 0 128", `^err oracle: query \(0,128\) out of range \[0,128\)$`},
		{"int32 overflow", "dist 4294967296 0", `^err bad vertex in \[4294967296 0\]$`},
		{"int64 overflow", "dist 99999999999999999999 0", `^err bad vertex in \[99999999999999999999 0\]$`},
		{"route self", "route 3 3", `^route 3 3 = 0 path=3$`},
		{"route normal", "route 0 100", `^route 0 100 = \d+ path=\d+(-\d+)*$`},
		{"route bad", "route x 1", `^err bad vertex in \[x 1\]$`},
		{"unknown command", "frobnicate 1 2", `^err unknown command "frobnicate" \(want dist\|route\|batch\|trace\|stats\|update\|snapshot\|quit\)$`},
		{"batch missing n", "batch", `^err want "batch <n>"$`},
		{"batch zero", "batch 0", `^err batch size must be in \[1, \d+\]$`},
		{"batch negative", "batch -3", `^err batch size must be in \[1, \d+\]$`},
		{"batch huge", "batch 99999999", `^err batch size must be in \[1, \d+\]$`},
		{"batch bad n", "batch xyz", `^err batch size must be in \[1, \d+\]$`},
		{"batch int64 overflow", "batch 99999999999999999999", `^err batch size must be in \[1, \d+\]$`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(o, Config{})
			got := runScript(t, srv, tc.input+"\n")
			if tc.want == "" {
				if len(got) != 0 {
					t.Fatalf("input %q: unexpected response %q", tc.input, got)
				}
				return
			}
			if len(got) != 1 {
				t.Fatalf("input %q: got %d response lines %q, want 1", tc.input, len(got), got)
			}
			if !regexp.MustCompile(tc.want).MatchString(got[0]) {
				t.Fatalf("input %q: response %q does not match %q", tc.input, got[0], tc.want)
			}
		})
	}
}

// TestStatsShape pins the extended stats response: the oracle report, a
// separator, and the server counter block with every declared counter.
func TestStatsShape(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{})
	lines := runScript(t, srv, "dist 0 1\nbogus\nstats\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines %q, want 3", len(lines), lines)
	}
	stats := lines[2]
	if !strings.HasPrefix(stats, "stats backend=") {
		t.Fatalf("stats response %q lacks oracle report prefix", stats)
	}
	if !strings.Contains(stats, " | server ") {
		t.Fatalf("stats response %q lacks server section", stats)
	}
	for _, field := range []string{"conns=1", "busy=0", "requests=3", "batches=0",
		"errs=1", "toolong=0", "timeouts=0", "active=", "routeP50=", "qps="} {
		if !strings.Contains(stats, field) {
			t.Fatalf("stats response %q missing %q", stats, field)
		}
	}
	if strings.Contains(stats, "= -1") || strings.Contains(stats, "=-1") {
		t.Fatalf("stats response %q leaks a sentinel", stats)
	}
}

// TestDistUnreachableWord is the regression test for the sentinel leak:
// dist on a disconnected pair used to answer "= -1" (raw graph.Unreachable)
// while route answered "unreachable".
func TestDistUnreachableWord(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	o, err := oracle.NewFromGraphs(g, g, 1, oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(o, Config{})
	lines := runScript(t, srv, "dist 0 4\nroute 0 4\ndist 0 2\n")
	if len(lines) != 3 {
		t.Fatalf("got %q, want 3 lines", lines)
	}
	if lines[0] != "dist 0 4 = unreachable" {
		t.Fatalf("dist across components = %q, want %q", lines[0], "dist 0 4 = unreachable")
	}
	if lines[1] != "route 0 4 = unreachable" {
		t.Fatalf("route across components = %q, want %q", lines[1], "route 0 4 = unreachable")
	}
	if strings.Contains(lines[0]+lines[1], "-1") {
		t.Fatalf("sentinel leaked: %q", lines[:2])
	}
	if !strings.HasPrefix(lines[2], "dist 0 2 = 1 exact=true") {
		t.Fatalf("in-component dist = %q", lines[2])
	}
}

// TestBatchStream answers a batch over ServeStream and checks index
// alignment, including error slots for malformed and out-of-range lines.
func TestBatchStream(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{})
	input := strings.Join([]string{
		"batch 6",
		"dist 0 1",
		"route 0 1", // wrong command inside a batch
		"dist -1 7", // out of range
		"dist 5 5",
		"garbage",
		"dist 0 1", // duplicate of index 0
		"",
	}, "\n")
	lines := runScript(t, srv, input)
	if len(lines) != 6 {
		t.Fatalf("batch 6 returned %d lines %q", len(lines), lines)
	}
	if !strings.HasPrefix(lines[0], "dist 0 1 = ") {
		t.Fatalf("batch[0] = %q", lines[0])
	}
	if lines[1] != `err batch lines must be dist queries, got "route"` {
		t.Fatalf("batch[1] = %q", lines[1])
	}
	if lines[2] != "err oracle: query (-1,7) out of range [0,128)" {
		t.Fatalf("batch[2] = %q", lines[2])
	}
	if lines[3] != "dist 5 5 = 0 exact=true bound=0" {
		t.Fatalf("batch[3] = %q", lines[3])
	}
	if !strings.HasPrefix(lines[4], "err batch lines must be dist queries") {
		t.Fatalf("batch[4] = %q", lines[4])
	}
	if lines[5] != lines[0] {
		t.Fatalf("identical queries disagree: %q vs %q", lines[0], lines[5])
	}
	if got := srv.Counter("batches"); got != 1 {
		t.Fatalf("batches counter = %d, want 1", got)
	}
	// The batch line plus its 6 sub-requests.
	if got := srv.Counter("requests"); got != 7 {
		t.Fatalf("requests counter = %d, want 7", got)
	}
}

// TestBatchMatchesSequential: every batch answer must equal the sequential
// dist answer for the same pair (modulo the us= latency field).
func TestBatchMatchesSequential(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{})
	const n = 40
	var batchIn, seqIn strings.Builder
	fmt.Fprintf(&batchIn, "batch %d\n", n)
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("dist %d %d\n", (i*7)%128, (i*31+5)%128)
		batchIn.WriteString(q)
		seqIn.WriteString(q)
	}
	seq := runScript(t, New(o, Config{}), seqIn.String())
	batch := runScript(t, srv, batchIn.String())
	if len(seq) != n || len(batch) != n {
		t.Fatalf("line counts: seq=%d batch=%d, want %d", len(seq), len(batch), n)
	}
	for i := range seq {
		if stripLatency(seq[i]) != batch[i] {
			t.Fatalf("index %d: sequential %q vs batch %q", i, seq[i], batch[i])
		}
	}
}

// TestQuitEndsStream: nothing is processed after quit.
func TestQuitEndsStream(t *testing.T) {
	o := testOracle(t)
	lines := runScript(t, New(o, Config{}), "dist 0 1\nquit\ndist 2 3\n")
	if len(lines) != 1 {
		t.Fatalf("got %q, want exactly the pre-quit response", lines)
	}
}
