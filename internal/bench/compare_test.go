package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func compareFixture(ns int64) *Measurement {
	return &Measurement{
		Schema:        SchemaName,
		SchemaVersion: SchemaVersion,
		Name:          "parallel_bfs",
		GeneratedAt:   "2026-01-01T00:00:00Z",
		Seed:          42,
		Workers:       1,
		Iterations:    3,
		NsPerOp:       ns,
		SerialNsPerOp: ns,

		SpeedupVsSerial: 1,
		Deterministic:   true,
		Fingerprint:     "b48c893fe9146085",
	}
}

func TestCompareToleratesSmallSlowdownsAndSpeedups(t *testing.T) {
	base := compareFixture(1000)
	for _, ns := range []int64{100, 999, 1000, 1200, 1250} {
		m := compareFixture(ns)
		if err := Compare(m, base, DefaultTolerance); err != nil {
			t.Errorf("ns=%d within 25%% tolerance but Compare failed: %v", ns, err)
		}
	}
	m := compareFixture(1251)
	if err := Compare(m, base, DefaultTolerance); err == nil {
		t.Error("25.1% regression passed the 25% gate")
	}
}

func TestCompareFailsOnFingerprintChangeAtSameSeed(t *testing.T) {
	base := compareFixture(1000)
	m := compareFixture(900) // faster, but wrong results
	m.Fingerprint = "deadbeefdeadbeef"
	err := Compare(m, base, DefaultTolerance)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("changed fingerprint at same seed not rejected: %v", err)
	}
	// Different seed: fingerprints legitimately differ, timing still gates.
	m.Seed = 43
	if err := Compare(m, base, DefaultTolerance); err != nil {
		t.Fatalf("different-seed fingerprint mismatch rejected: %v", err)
	}
}

func TestCompareSkipsTimingAcrossSizeClasses(t *testing.T) {
	base := compareFixture(1000)
	m := compareFixture(50000) // quick run vs full baseline: no timing gate
	m.Quick = true
	if err := Compare(m, base, DefaultTolerance); err != nil {
		t.Fatalf("cross-size-class comparison gated on timing: %v", err)
	}
	// But mismatched names are always an error.
	m.Name = "stretch_sweep"
	if err := Compare(m, base, DefaultTolerance); err == nil {
		t.Fatal("cross-scenario comparison not rejected")
	}
}

func TestCompareDirMissingAndPresentBaselines(t *testing.T) {
	dir := t.TempDir()
	m := compareFixture(1000)
	compared, err := CompareDir(m, dir, DefaultTolerance)
	if compared || err != nil {
		t.Fatalf("missing baseline: compared=%v err=%v, want false,nil", compared, err)
	}
	if _, err := m.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	fast := compareFixture(1100)
	compared, err = CompareDir(fast, dir, DefaultTolerance)
	if !compared || err != nil {
		t.Fatalf("within-tolerance run: compared=%v err=%v, want true,nil", compared, err)
	}
	slow := compareFixture(2000)
	compared, err = CompareDir(slow, dir, DefaultTolerance)
	if !compared || err == nil {
		t.Fatalf("2x regression: compared=%v err=%v, want true,error", compared, err)
	}
	// A corrupt baseline is an error, not a silent skip.
	path := filepath.Join(dir, Filename(m.Name))
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CompareDir(m, dir, DefaultTolerance); err == nil {
		t.Fatal("corrupt baseline not reported")
	}
}

// Every committed BENCH_*.json baseline at the repository root must name
// a registered scenario, sit under that scenario's file name, and carry
// its registry description, so renaming or re-describing a scenario
// cannot leave a stale baseline behind.
func TestCommittedBaselinesMatchRegistry(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json baselines found")
	}
	for _, p := range paths {
		base := filepath.Base(p)
		m, err := ReadFile(p)
		if err != nil {
			t.Errorf("%s: %v", base, err)
			continue
		}
		sc, ok := Lookup(m.Name)
		if !ok {
			t.Errorf("%s names unregistered scenario %q", base, m.Name)
			continue
		}
		if base != Filename(sc.Name) {
			t.Errorf("%s holds scenario %q, want file %s", base, sc.Name, Filename(sc.Name))
		}
		if m.Description != sc.Description {
			t.Errorf("%s description:\n  %q\nregistry says:\n  %q", base, m.Description, sc.Description)
		}
	}
}
