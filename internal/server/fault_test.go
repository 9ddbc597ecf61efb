package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestOversizedLineAnsweredNotDropped is the regression test for the
// silent-kill bug: the old bufio.Scanner path never checked sc.Err(), so a
// request line over 64KB ended the connection with no response. The
// hardened reader must answer "err line too long", resync, and keep the
// connection serving — here with a 1MB line against the documented max.
func TestOversizedLineAnsweredNotDropped(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{})
	addr, _, _ := startTCP(t, srv)
	c := dialClient(t, addr)

	huge := strings.Repeat("a", 1<<20) // 1MB, far over the 256KB default
	c.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.conn.Write(append([]byte(huge), '\n')); err != nil {
		t.Fatalf("write oversized line: %v", err)
	}
	want := fmt.Sprintf("err line too long (max %d bytes)", DefaultMaxLineBytes)
	if got := c.readLine(); got != want {
		t.Fatalf("oversized line answered %q, want %q", got, want)
	}
	// The connection survived and still serves.
	c.send("dist 0 1")
	if got := c.readLine(); !strings.HasPrefix(got, "dist 0 1 = ") {
		t.Fatalf("connection unusable after oversized line: %q", got)
	}
	if got := srv.Counter("toolong"); got != 1 {
		t.Fatalf("toolong counter = %d, want 1", got)
	}
}

// TestOversizedLineOnStream covers the same bug on the stdin-style path
// (no deadlines) with a line just over the configured max.
func TestOversizedLineOnStream(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{MaxLineBytes: 1 << 10})
	input := strings.Repeat("x", 1<<10+1) + "\ndist 0 1\n"
	lines := runScript(t, srv, input)
	if len(lines) != 2 {
		t.Fatalf("got %q, want err + answer", lines)
	}
	if lines[0] != "err line too long (max 1024 bytes)" {
		t.Fatalf("lines[0] = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "dist 0 1 = ") {
		t.Fatalf("lines[1] = %q", lines[1])
	}
	// A line of exactly the max is served, not rejected.
	exact := "dist 0 1" + strings.Repeat(" ", 1<<10-8)
	if lines := runScript(t, New(o, Config{MaxLineBytes: 1 << 10}), exact+"\n"); len(lines) != 1 ||
		!strings.HasPrefix(lines[0], "dist 0 1 = ") {
		t.Fatalf("exact-max line answered %q", lines)
	}
}

// TestMalformedFlood: a client spewing garbage gets an error per line and
// the connection stays up throughout.
func TestMalformedFlood(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{})
	addr, _, _ := startTCP(t, srv)
	c := dialClient(t, addr)
	for i := 0; i < 50; i++ {
		c.send(fmt.Sprintf("junk%d x y z", i))
		if got := c.readLine(); !strings.HasPrefix(got, "err unknown command") {
			t.Fatalf("flood line %d answered %q", i, got)
		}
	}
	c.send("dist 1 2")
	if got := c.readLine(); !strings.HasPrefix(got, "dist 1 2 = ") {
		t.Fatalf("connection dead after flood: %q", got)
	}
	if got := srv.Counter("errs"); got != 50 {
		t.Fatalf("errs counter = %d, want 50", got)
	}
}

// TestSlowLorisIdleTimeout: a client that opens a connection and trickles
// (or stalls mid-line) must be told why and disconnected at the idle
// deadline, freeing its slot.
func TestSlowLorisIdleTimeout(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{IdleTimeout: 100 * time.Millisecond})
	addr, _, _ := startTCP(t, srv)
	c := dialClient(t, addr)

	// Half a request, then silence.
	if _, err := c.conn.Write([]byte("dist 0")); err != nil {
		t.Fatalf("partial write: %v", err)
	}
	got, err := c.tryReadLine(5 * time.Second)
	if err != nil {
		t.Fatalf("slow client read: %v", err)
	}
	if got != "err idle timeout, closing connection" {
		t.Fatalf("slow client answered %q", got)
	}
	if _, err := c.tryReadLine(2 * time.Second); !errors.Is(err, io.EOF) {
		t.Fatalf("slow client not disconnected: %v", err)
	}
	if srv.Counter("timeouts") != 1 {
		t.Fatalf("timeouts counter = %d, want 1", srv.Counter("timeouts"))
	}
}

// TestSlowLorisInsideBatch: stalling between batch lines hits the same
// idle deadline instead of pinning a worker forever.
func TestSlowLorisInsideBatch(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{IdleTimeout: 100 * time.Millisecond})
	addr, _, _ := startTCP(t, srv)
	c := dialClient(t, addr)

	c.send("batch 3")
	c.send("dist 0 1") // then never send the remaining two lines
	got, err := c.tryReadLine(5 * time.Second)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got != "err idle timeout inside batch, closing connection" {
		t.Fatalf("stalled batch answered %q", got)
	}
	if _, err := c.tryReadLine(2 * time.Second); !errors.Is(err, io.EOF) {
		t.Fatalf("stalled batch client not disconnected: %v", err)
	}
}

// TestMidLineDisconnect: a client that dies mid-request must not wedge or
// panic the server; the next connection is served normally.
func TestMidLineDisconnect(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{})
	addr, _, _ := startTCP(t, srv)

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write([]byte("dist 12")); err != nil { // no newline
		t.Fatalf("partial write: %v", err)
	}
	conn.Close()

	// Same fault mid-batch: header promised 2 lines, connection died after 1.
	conn2, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn2.Write([]byte("batch 2\ndist 0 1\n")); err != nil {
		t.Fatalf("batch write: %v", err)
	}
	conn2.Close()

	// The server shrugged both off and keeps serving.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Active() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if a := srv.Active(); a != 0 {
		t.Fatalf("%d sessions leaked after disconnects", a)
	}
	c := dialClient(t, addr)
	c.send("dist 3 4")
	if got := c.readLine(); !strings.HasPrefix(got, "dist 3 4 = ") {
		t.Fatalf("server unhealthy after disconnects: %q", got)
	}
}

// TestOversizedBatchLineKeepsAlignment: one oversized line inside a batch
// consumes its slot with an error; the other slots still answer.
func TestOversizedBatchLineKeepsAlignment(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{MaxLineBytes: 64})
	input := "batch 3\ndist 0 1\ndist 2 " + strings.Repeat("9", 100) + "\ndist 5 5\n"
	lines := runScript(t, srv, input)
	if len(lines) != 3 {
		t.Fatalf("got %d lines %q, want 3", len(lines), lines)
	}
	if !strings.HasPrefix(lines[0], "dist 0 1 = ") {
		t.Fatalf("lines[0] = %q", lines[0])
	}
	if lines[1] != "err line too long (max 64 bytes)" {
		t.Fatalf("lines[1] = %q", lines[1])
	}
	if lines[2] != "dist 5 5 = 0 exact=true bound=0" {
		t.Fatalf("lines[2] = %q", lines[2])
	}
}

// TestTruncatedMaxBatchCostsNothing: a client that promises the maximum
// batch size and immediately disconnects must not hang the session or
// commit the server to the full batch's allocations — the batch buffers
// grow with the lines actually received, so the only cost of the empty
// promise is the small initial capacity.
func TestTruncatedMaxBatchCostsNothing(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{})
	lines := runScript(t, srv, fmt.Sprintf("batch %d\n", DefaultMaxBatch))
	if len(lines) != 0 {
		t.Fatalf("truncated batch answered %d lines %q, want none", len(lines), lines)
	}
	// The same server still answers a fresh session.
	if got := runScript(t, srv, "dist 1 2\n"); len(got) != 1 || !strings.HasPrefix(got[0], "dist 1 2 = ") {
		t.Fatalf("server unhealthy after truncated batch: %q", got)
	}
}

// TestTextBatchAfterIdleWriteTimeout: a batch answer larger than the
// text session's 4 KiB writer arrives whole after the connection sat idle
// past WriteTimeout. The writer spills mid-batch, before the flush, so
// the write deadline must be armed for that write, not left over from
// the previous response.
func TestTextBatchAfterIdleWriteTimeout(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{WriteTimeout: 50 * time.Millisecond})
	addr, _, _ := startTCP(t, srv)
	c := dialClient(t, addr)

	c.send("dist 0 1")
	if got := c.readLine(); !strings.HasPrefix(got, "dist 0 1 = ") {
		t.Fatalf("dist answered %q", got)
	}
	time.Sleep(150 * time.Millisecond)
	const n = 300 // about 10 KB of answers
	var req strings.Builder
	fmt.Fprintf(&req, "batch %d\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, "dist %d %d\n", i%128, (i*7+1)%128)
	}
	c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.conn.Write([]byte(req.String())); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	for i := 0; i < n; i++ {
		got, err := c.tryReadLine(5 * time.Second)
		if err != nil {
			t.Fatalf("batch line %d: %v", i, err)
		}
		if want := fmt.Sprintf("dist %d %d = ", i%128, (i*7+1)%128); !strings.HasPrefix(got, want) {
			t.Fatalf("batch line %d = %q, want prefix %q", i, got, want)
		}
	}
}
