package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/wire"
)

// dialWire connects a wire.Client to a server started with startTCP.
func dialWire(t testing.TB, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr, wire.ClientOptions{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("wire.Dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestBinaryMatchesText answers the same queries over both protocols on
// the same server and checks they agree (the text line is the rendering
// of the binary answer).
func TestBinaryMatchesText(t *testing.T) {
	srv := New(testOracle(t), Config{})
	addr, _, _ := startTCP(t, srv)

	bc := dialWire(t, addr)
	tc := dialClient(t, addr)

	pairs := [][2]int32{{0, 1}, {5, 100}, {7, 7}, {127, 3}}
	for _, p := range pairs {
		a, err := bc.Dist(p[0], p[1])
		if err != nil {
			t.Fatalf("binary Dist(%d,%d): %v", p[0], p[1], err)
		}
		tc.send(fmtDist(p[0], p[1]))
		text := stripLatency(tc.readLine())
		if want := formatDist(a, -1); text != want {
			t.Fatalf("protocol disagreement for (%d,%d): text %q, binary renders %q", p[0], p[1], text, want)
		}
	}

	if srv.Counter("binconns") != 1 {
		t.Fatalf("binconns = %d, want 1", srv.Counter("binconns"))
	}
}

func fmtDist(u, v int32) string {
	return fmt.Sprintf("dist %d %d", u, v)
}

// TestBinaryBatchMatchesOracle checks the binary batch path returns
// exactly oracle.AnswerBatch, including sentinel answers for invalid
// queries (no pre-validation on the binary path).
func TestBinaryBatchMatchesOracle(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{})
	addr, _, _ := startTCP(t, srv)
	c := dialWire(t, addr)

	qs := []oracle.Query{{U: 0, V: 1}, {U: -5, V: 2}, {U: 3, V: 1 << 20}, {U: 64, V: 65}}
	got, err := c.Batch(qs)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	want := o.AnswerBatch(qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[1].Dist != graph.Unreachable {
		t.Fatalf("invalid query answered %+v, want Unreachable sentinel", got[1])
	}
}

// TestBinaryStatsInfo exercises MsgStats and MsgInfo.
func TestBinaryStatsInfo(t *testing.T) {
	srv := New(testOracle(t), Config{MaxBatch: 77})
	addr, _, _ := startTCP(t, srv)
	c := dialWire(t, addr)

	info, err := c.Info()
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if info.N != 128 || info.MaxBatch != 77 {
		t.Fatalf("Info = %+v, want N=128 MaxBatch=77", info)
	}
	line, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if !strings.Contains(line, "server") || !strings.Contains(line, "binconns=1") {
		t.Fatalf("stats line %q missing server counters", line)
	}
}

// TestBinaryErrors exercises MsgErr responses: bad payloads and oversized
// batches answer errors and keep the connection usable.
func TestBinaryErrors(t *testing.T) {
	srv := New(testOracle(t), Config{MaxBatch: 4})
	addr, _, _ := startTCP(t, srv)
	c := dialWire(t, addr)

	if _, err := c.Batch(make([]oracle.Query, 5)); err == nil {
		t.Fatal("oversized batch accepted")
	} else if !strings.Contains(err.Error(), "batch size") {
		t.Fatalf("oversized batch error = %v", err)
	}
	// The connection survives protocol-level errors.
	if _, err := c.Dist(0, 1); err != nil {
		t.Fatalf("Dist after error: %v", err)
	}
	if !c.Healthy() {
		t.Fatal("connection died on a protocol-level error")
	}
}

// TestBinaryFrameCorruptionCloses sends a frame with an oversized length
// prefix and expects MsgErr id 0 followed by a close.
func TestBinaryFrameCorruptionCloses(t *testing.T) {
	srv := New(testOracle(t), Config{})
	addr, _, _ := startTCP(t, srv)

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	conn.Write(wire.AppendHello(nil, wire.VersionMin, wire.VersionMax))
	var reply [wire.HelloLen]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatalf("hello reply: %v", err)
	}
	// 512 MiB length prefix: over any sane frame limit.
	conn.Write(binary.BigEndian.AppendUint32(nil, 1<<29))

	f, err := wire.ReadFrame(conn, wire.DefaultMaxFrameBytes)
	if err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	if f.Type != wire.MsgErr || f.ID != 0 {
		t.Fatalf("got frame %+v, want MsgErr id 0", f)
	}
	if _, err := wire.ReadFrame(conn, wire.DefaultMaxFrameBytes); err == nil {
		t.Fatal("connection stayed open after frame corruption")
	}
}

// TestBinaryVersionRejected checks a client advertising only versions
// the server does not speak — newer ones, or the retired binary versions
// 2 and 3 — gets a version-0 reply.
func TestBinaryVersionRejected(t *testing.T) {
	srv := New(testOracle(t), Config{})
	addr, _, _ := startTCP(t, srv)

	for _, offer := range [][2]uint16{{99, 120}, {2, 3}} {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		conn.Write(wire.AppendHello(nil, offer[0], offer[1]))
		var reply [wire.HelloLen]byte
		if _, err := io.ReadFull(conn, reply[:]); err != nil {
			t.Fatalf("%v: hello reply: %v", offer, err)
		}
		v, err := wire.ParseHelloReply(reply[:])
		if err != nil {
			t.Fatalf("%v: ParseHelloReply: %v", offer, err)
		}
		if v != 0 {
			t.Fatalf("negotiated version %d for a %v client, want 0", v, offer)
		}
		conn.Close()
	}
}

// TestBinaryPipeliningConcurrent floods one connection from several
// goroutines; every answer must match its own query (ids can't cross).
func TestBinaryPipeliningConcurrent(t *testing.T) {
	srv := New(testOracle(t), Config{})
	addr, _, _ := startTCP(t, srv)
	c := dialWire(t, addr)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				u, v := int32((g*41+i)%128), int32((g*17+i*3)%128)
				a, err := c.Dist(u, v)
				if err != nil {
					t.Errorf("Dist(%d,%d): %v", u, v, err)
					return
				}
				if a.U != u || a.V != v {
					t.Errorf("Dist(%d,%d) answered for (%d,%d)", u, v, a.U, a.V)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBinaryDrainAnswersInflight starts a binary request, cancels the
// server, and expects the in-flight response to still arrive before the
// connection closes.
func TestBinaryDrainAnswersInflight(t *testing.T) {
	srv := New(testOracle(t), Config{})
	addr, cancel, done := startTCP(t, srv)
	c := dialWire(t, addr)

	if _, err := c.Dist(0, 1); err != nil {
		t.Fatalf("warmup Dist: %v", err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain hung with an open binary connection")
	}
}

// TestServeStreamStillText guards the stdin mode: ServeStream input that
// does not start with the magic byte speaks the text protocol unchanged.
func TestServeStreamStillText(t *testing.T) {
	srv := New(testOracle(t), Config{})
	lines := runScript(t, srv, "dist 0 1\nquit\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "dist 0 1 = ") {
		t.Fatalf("text-over-stream broke: %q", lines)
	}
}
