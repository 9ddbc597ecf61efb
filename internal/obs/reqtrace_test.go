package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPathString(t *testing.T) {
	cases := []struct {
		mask uint8
		want string
	}{
		{0, "none"},
		{PathBiBFS, "bibfs"},
		{PathBulk, "bulk"},
		{PathExact, "exact"},
		{PathHub, "hub"},
		{PathBiBFS | PathBulk, "bibfs|bulk"},
		{PathBiBFS | PathBulk | PathExact | PathHub, "bibfs|bulk|exact|hub"},
		// Unassigned bits arrive from peers in wire response flags: they
		// render as no path, never as an empty string.
		{1 << 0, "none"},
		{1<<0 | 1<<1, "none"},
		{1<<1 | PathHub, "hub"},
	}
	for _, c := range cases {
		if got := PathString(c.mask); got != c.want {
			t.Errorf("PathString(%#x) = %q, want %q", c.mask, got, c.want)
		}
	}
	// The bits travel in wire trace flags between builds: their values
	// are fixed.
	if PathBiBFS != 1<<2 || PathBulk != 1<<3 || PathExact != 1<<4 || PathHub != 1<<5 {
		t.Errorf("path bits moved: bibfs=%#x bulk=%#x exact=%#x hub=%#x",
			PathBiBFS, PathBulk, PathExact, PathHub)
	}
}

func TestNewTraceIDUniqueNonzero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("NewTraceID returned 0 (the untraced sentinel)")
		}
		if seen[id] {
			t.Fatalf("NewTraceID repeated %x", id)
		}
		seen[id] = true
	}
}

// TestNilReqTraceSafe: every method must no-op on nil — the unsampled
// hot path threads a nil trace unconditionally.
func TestNilReqTraceSafe(t *testing.T) {
	var tr *ReqTrace
	tr.SetVerb("dist", "u=1 v=2")
	tr.Hop("queue", time.Now(), "")
	tr.Event("retry", "")
	tr.OrPath(PathBiBFS)
	if tr.ID() != 0 || tr.Path() != 0 || tr.Hops() != nil || !tr.Start().IsZero() {
		t.Error("nil trace accessors not zero")
	}
	if rec := tr.Finish(NewFlightRecorder(4, 2, 0), "x"); rec != nil {
		t.Error("nil trace Finish returned a record")
	}
}

func TestReqTraceLifecycle(t *testing.T) {
	tr := NewReqTrace(0x42, time.Now())
	if tr.ID() != 0x42 {
		t.Fatalf("continued id = %x, want 42", tr.ID())
	}
	tr.SetVerb("batch", "n=16")
	h0 := time.Now()
	time.Sleep(time.Millisecond)
	tr.Hop("queue", h0, "")
	tr.Event("retry", "chunk=0 worker=1")
	tr.OrPath(PathBiBFS)
	tr.OrPath(PathBulk)
	if tr.Path() != PathBiBFS|PathBulk {
		t.Fatalf("path = %#x", tr.Path())
	}

	fr := NewFlightRecorder(4, 2, time.Hour)
	rec := tr.Finish(fr, "")
	if rec == nil {
		t.Fatal("Finish returned nil")
	}
	if rec.ID != "0000000000000042" || rec.Verb != "batch" || rec.Detail != "n=16" {
		t.Errorf("record header = %q %q %q", rec.ID, rec.Verb, rec.Detail)
	}
	if rec.Path != "bibfs|bulk" {
		t.Errorf("record path = %q", rec.Path)
	}
	if len(rec.Hops) != 2 || rec.Hops[0].Name != "queue" || rec.Hops[1].Name != "retry" {
		t.Fatalf("hops = %+v", rec.Hops)
	}
	if rec.Hops[0].DurUS < 500 {
		t.Errorf("queue hop %vµs, slept 1ms", rec.Hops[0].DurUS)
	}
	if rec.Hops[1].DurUS != 0 || rec.Hops[1].Note != "chunk=0 worker=1" {
		t.Errorf("event hop = %+v", rec.Hops[1])
	}
	if rec.DurationUS < rec.Hops[0].DurUS {
		t.Errorf("total %vµs below queue hop %vµs", rec.DurationUS, rec.Hops[0].DurUS)
	}
	if got := fr.Recent(); len(got) != 1 || got[0] != rec {
		t.Error("Finish did not land the record in the recorder")
	}

	line := rec.Line()
	for _, want := range []string{"id=0000000000000042", "path=bibfs|bulk", "queue +", "retry +", "(chunk=0 worker=1)"} {
		if !strings.Contains(line, want) {
			t.Errorf("Line() misses %q: %s", want, line)
		}
	}
	if strings.Contains(line, "err=") {
		t.Errorf("clean trace rendered an err: %s", line)
	}
}

func TestReqTraceFreshIDAndErr(t *testing.T) {
	tr := NewReqTrace(0, time.Now())
	if tr.ID() == 0 {
		t.Fatal("fresh trace got id 0")
	}
	rec := tr.Finish(nil, "worker lost") // nil recorder: record still returned
	if rec == nil || rec.Err != "worker lost" {
		t.Fatalf("errored record = %+v", rec)
	}
	if !strings.Contains(rec.Line(), `err="worker lost"`) {
		t.Errorf("Line() misses err: %s", rec.Line())
	}
	// An errored record goes to the slow ring regardless of duration.
	fr := NewFlightRecorder(4, 2, time.Hour)
	fr.Record(rec)
	if len(fr.Slow()) != 1 {
		t.Error("errored record missed the slow ring")
	}
}

// TestReqTraceConcurrent mirrors the router's fan-out: shard goroutines
// appending hops and ORing path bits into one trace. Run under -race.
func TestReqTraceConcurrent(t *testing.T) {
	tr := NewReqTrace(0, time.Now())
	const shards = 8
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Hop("shard", time.Now(), "")
				tr.OrPath(PathBiBFS << (uint(s) % 4))
			}
		}(s)
	}
	wg.Wait()
	if got := len(tr.Hops()); got != shards*100 {
		t.Fatalf("hops = %d, want %d", got, shards*100)
	}
	if tr.Path() != PathBiBFS|PathBulk|PathExact|PathHub {
		t.Fatalf("path = %#x", tr.Path())
	}
}
