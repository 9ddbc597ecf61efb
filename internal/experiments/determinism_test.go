package experiments

import "testing"

// The harness-level determinism guarantee (Config.Workers godoc): for a
// fixed seed, rendered experiment reports are byte-identical for every
// worker count. Cover the Table 1 stretch/congestion measurements — the
// rows that exercise the edge-stretch sweep, the sampled-pair sweep, and
// the parallel congestion accounting — plus the packet simulator's
// accounting path.
func TestReportsIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment sweep")
	}
	ids := []string{"table1-thm2", "table1-kx16", "table1-thm4", "packet-latency"}
	for _, id := range ids {
		run, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		base, err := run(Config{Seed: 42, Quick: true, Workers: 1})
		if err != nil {
			t.Fatalf("%s workers=1: %v", id, err)
		}
		for _, workers := range []int{0, 2, 4} {
			got, err := run(Config{Seed: 42, Quick: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			if got.Body != base.Body {
				t.Errorf("%s: report differs between workers=1 and workers=%d:\n--- workers=1\n%s--- workers=%d\n%s",
					id, workers, base.Body, workers, got.Body)
			}
		}
	}
}
