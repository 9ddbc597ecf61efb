package server

import (
	"bytes"
	"context"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/wire"
)

// hopNames extracts the hop names of a record in order.
func hopNames(rec *obs.TraceRecord) []string {
	names := make([]string, len(rec.Hops))
	for i, h := range rec.Hops {
		names[i] = h.Name
	}
	return names
}

// waitRecorded waits up to 5s for the flight recorder to count want
// finished traces. A binary session completes a trace just after it
// flushes the response, so a client can hold the answer a moment before
// the trace lands; the callers' own assertions report a shortfall.
func waitRecorded(flight *obs.FlightRecorder, want int64) {
	for deadline := time.Now().Add(5 * time.Second); flight.Recorded() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// TestTraceVerb: the text protocol's `trace u v` answers the distance
// plus the hop breakdown inline, and the trace lands in the flight
// recorder.
func TestTraceVerb(t *testing.T) {
	// A threshold no request reaches keeps the slow ring to errored
	// traces alone, however slow the host runs the successful one.
	flight := obs.NewFlightRecorder(8, 4, time.Hour)
	srv := New(testOracle(t), Config{Flight: flight})

	lines := runScript(t, srv, "trace 0 1\nquit\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines: %q", len(lines), lines)
	}
	re := regexp.MustCompile(`^trace 0 1 = \d+ id=[0-9a-f]{16} path=\S+ total=[\d.]+µs hops=\[oracle \+[\d.]+µs/[\d.]+µs \(path=\S+\)\]$`)
	if !re.MatchString(lines[0]) {
		t.Fatalf("trace response %q does not match %v", lines[0], re)
	}

	recent := flight.Recent()
	if len(recent) != 1 {
		t.Fatalf("flight recorder holds %d traces, want 1", len(recent))
	}
	rec := recent[0]
	if rec.Verb != "trace" || rec.Detail != "u=0 v=1" {
		t.Errorf("record verb/detail = %q/%q", rec.Verb, rec.Detail)
	}
	if !strings.Contains(lines[0], "id="+rec.ID) {
		t.Errorf("inline id does not match the recorded trace: %q vs %s", lines[0], rec.ID)
	}

	// Errors render err lines and land in the slow ring.
	lines = runScript(t, srv, "trace -1 5\ntrace 0\nquit\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "err ") || !strings.HasPrefix(lines[1], "err ") {
		t.Fatalf("bad trace args answered %q", lines)
	}
	if len(flight.Slow()) != 1 { // only the out-of-range one reached the backend
		t.Errorf("slow ring holds %d, want the errored trace", len(flight.Slow()))
	}
}

// TestBinaryTraceEndToEnd: a client that sets the sampling bit gets
// back its own trace id, the sampled bit, and a resolution-path mask,
// and the server records queue/oracle/write hops in the flight recorder.
func TestBinaryTraceEndToEnd(t *testing.T) {
	flight := obs.NewFlightRecorder(8, 4, 0)
	reg := obs.NewRegistry()
	srv := New(testOracle(t), Config{Flight: flight, Registry: reg})
	addr, _, _ := startTCP(t, srv)
	c := dialWire(t, addr)

	const id = 0xfeed0001
	a, rtc, err := c.DistTraced(0, 1, wire.SampledContext(id))
	if err != nil {
		t.Fatalf("DistTraced: %v", err)
	}
	if a.U != 0 || a.V != 1 {
		t.Fatalf("answer %+v", a)
	}
	if rtc.ID != id || !rtc.Sampled() {
		t.Fatalf("response trace ctx %+v, want id %#x sampled", rtc, id)
	}
	if rtc.PathMask() == 0 {
		t.Fatal("response carries no resolution-path mask")
	}

	qs := []oracle.Query{{U: 2, V: 3}, {U: 4, V: 5}}
	if _, rtc, err = c.BatchTraced(qs, wire.SampledContext(id+1)); err != nil {
		t.Fatalf("BatchTraced: %v", err)
	}
	if rtc.ID != id+1 || !rtc.Sampled() || rtc.PathMask() == 0 {
		t.Fatalf("batch response trace ctx %+v", rtc)
	}

	waitRecorded(flight, 2)
	recent := flight.Recent()
	if len(recent) != 2 {
		t.Fatalf("flight recorder holds %d traces, want 2", len(recent))
	}
	// A trace finishes after its response is written, so the batch can
	// land in the recorder before the dist: match records by trace id.
	batchRec, distRec := recent[0], recent[1] // newest first
	if batchRec.ID == "00000000feed0001" {
		batchRec, distRec = distRec, batchRec
	}
	if distRec.ID != "00000000feed0001" || distRec.Verb != "dist" || distRec.Detail != "u=0 v=1" {
		t.Errorf("dist record = %+v", distRec)
	}
	if batchRec.ID != "00000000feed0002" || batchRec.Verb != "batch" || batchRec.Detail != "n=2" {
		t.Errorf("batch record = %+v", batchRec)
	}
	for _, rec := range recent {
		got := hopNames(rec)
		if len(got) != 3 || got[0] != "queue" || got[1] != "oracle" || got[2] != "write" {
			t.Errorf("%s hops = %v, want [queue oracle write]", rec.Verb, got)
		}
		if rec.Path == "none" {
			t.Errorf("%s record path = none", rec.Verb)
		}
	}

	// The per-stage histograms observed each traced request, and the
	// exemplars carry the trace ids.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exposition := b.String()
	for _, stage := range []string{"server_stage_queue_seconds", "server_stage_backend_seconds", "server_stage_write_seconds"} {
		if !strings.Contains(exposition, stage+"_count 2") {
			t.Errorf("/metrics misses %s_count 2", stage)
		}
	}
	if !strings.Contains(exposition, `trace_id="00000000feed000`) {
		t.Error("/metrics carries no trace-id exemplar")
	}
}

// TestBinaryUntracedEchoesID: without the sampling bit nothing is traced
// — the response echoes the id unsampled and the recorder stays empty.
func TestBinaryUntracedEchoesID(t *testing.T) {
	flight := obs.NewFlightRecorder(8, 4, 0)
	srv := New(testOracle(t), Config{Flight: flight})
	addr, _, _ := startTCP(t, srv)
	c := dialWire(t, addr)

	_, rtc, err := c.DistTraced(0, 1, wire.TraceContext{ID: 0x77}) // id, no sampled bit
	if err != nil {
		t.Fatalf("DistTraced: %v", err)
	}
	if rtc.ID != 0x77 || rtc.Sampled() || rtc.PathMask() != 0 {
		t.Fatalf("untraced response ctx %+v, want bare id echo", rtc)
	}
	if flight.Recorded() != 0 {
		t.Fatalf("untraced request recorded %d traces", flight.Recorded())
	}
}

// TestBinaryServerSampling: TraceSample elects requests even when the
// client never asks, minting fresh trace ids.
func TestBinaryServerSampling(t *testing.T) {
	flight := obs.NewFlightRecorder(8, 4, 0)
	srv := New(testOracle(t), Config{Flight: flight, TraceSample: 2})
	addr, _, _ := startTCP(t, srv)
	c := dialWire(t, addr)

	for i := 0; i < 6; i++ {
		if _, err := c.Dist(int32(i), int32(i+1)); err != nil {
			t.Fatalf("Dist %d: %v", i, err)
		}
	}
	waitRecorded(flight, 3)
	if got := flight.Recorded(); got != 3 {
		t.Fatalf("1-in-2 sampling recorded %d of 6, want 3", got)
	}
	for _, rec := range flight.Recent() {
		if rec.ID == "0000000000000000" {
			t.Error("server-elected trace kept id 0")
		}
	}
}

// TestBinaryBurstTraceStart: the traced frames of one burst all start at
// the read that brought them in, so each one's queue hop counts the wait
// behind the frames answered before it.
func TestBinaryBurstTraceStart(t *testing.T) {
	flight := obs.NewFlightRecorder(16, 4, time.Hour)
	srv := New(testOracle(t), Config{Flight: flight})
	const n = 8
	in := wire.AppendHello(nil, wire.VersionMin, wire.VersionMax)
	for i := 0; i < n; i++ {
		in = append(in, distFrame(uint64(i+1), int32(i), int32(i+9), wire.SampledContext(uint64(i+1)))...)
	}
	srv.ServeStream(context.Background(), bytes.NewReader(in), io.Discard)

	recent := flight.Recent() // newest first
	if len(recent) != n {
		t.Fatalf("flight recorder holds %d traces, want %d", len(recent), n)
	}
	start := recent[0].Start
	var prevQueue float64
	for i := n - 1; i >= 0; i-- {
		rec := recent[i]
		if !rec.Start.Equal(start) {
			t.Fatalf("trace %s starts at %v, want the burst's read at %v", rec.ID, rec.Start, start)
		}
		if len(rec.Hops) == 0 || rec.Hops[0].Name != "queue" {
			t.Fatalf("trace %s hops = %v, want a leading queue hop", rec.ID, hopNames(rec))
		}
		if q := rec.Hops[0].DurUS; q < prevQueue {
			t.Fatalf("trace %s queued %.1fµs, less than the frame before it (%.1fµs)", rec.ID, q, prevQueue)
		}
		prevQueue = rec.Hops[0].DurUS
	}
}
