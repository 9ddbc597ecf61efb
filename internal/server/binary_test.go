package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
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

// dialBinary opens a raw binary connection and completes the handshake,
// for tests that write frame bytes themselves. The connection carries a
// 10 s deadline, so a server that never answers fails the test.
func dialBinary(t testing.TB, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	conn.Write(wire.AppendHello(nil, wire.VersionMin, wire.VersionMax))
	var reply [wire.HelloLen]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatalf("hello reply: %v", err)
	}
	return conn
}

// distFrame encodes one dist request frame.
func distFrame(id uint64, u, v int32, tc wire.TraceContext) []byte {
	return wire.AppendFrame(nil, wire.Frame{Type: wire.MsgDist, ID: id, Trace: tc,
		Payload: wire.AppendQuery(nil, oracle.Query{U: u, V: v})})
}

// TestBinaryFrameCorruptionCloses sends a frame with an oversized length
// prefix and expects MsgErr id 0 followed by a close.
func TestBinaryFrameCorruptionCloses(t *testing.T) {
	srv := New(testOracle(t), Config{})
	addr, _, _ := startTCP(t, srv)
	conn := dialBinary(t, addr)

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

// writeCounter is an io.Writer that counts the writes reaching it.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestBinaryBurstFlushesOnce: dist frames that arrive together are
// answered from the read buffer and their responses leave in one write,
// in request order, each equal to the oracle's answer.
func TestBinaryBurstFlushesOnce(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{})
	const n = 32
	in := wire.AppendHello(nil, wire.VersionMin, wire.VersionMax)
	for i := 0; i < n; i++ {
		in = append(in, distFrame(uint64(i+1), int32(i), int32(3*i+1), wire.TraceContext{})...)
	}
	var out writeCounter
	srv.ServeStream(context.Background(), bytes.NewReader(in), &out)
	if out.writes != 2 {
		t.Fatalf("%d pipelined dist frames took %d writes after the hello reply, want 1", n, out.writes-1)
	}

	resp := bytes.NewReader(out.Bytes()[wire.HelloLen:])
	for i := 0; i < n; i++ {
		f, err := wire.ReadFrame(resp, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		a, err := wire.DecodeAnswer(f.Payload)
		if err != nil || f.Type != wire.MsgDistR || f.ID != uint64(i+1) {
			t.Fatalf("response %d: frame %+v (%v), want a dist answer for id %d", i, f, err, i+1)
		}
		want, err := o.Dist(int32(i), int32(3*i+1))
		if err != nil || a != want {
			t.Fatalf("response %d answered %+v, want %+v (%v)", i, a, want, err)
		}
	}
}

// blockingBackend serves an oracle, except that its Dist for the pair
// block waits until release is closed.
type blockingBackend struct {
	Backend
	block   oracle.Query
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) Dist(u, v int32) (oracle.Answer, error) {
	if u == b.block.U && v == b.block.V {
		close(b.entered)
		<-b.release
	}
	return b.Backend.Dist(u, v)
}

// TestBinaryFrontDoorKeepsPipelining: a server over another Backend
// (dcrouter's front door, whose Dist is a worker round trip) answers a
// dist frame while an earlier one on the same connection is still in
// its backend.
func TestBinaryFrontDoorKeepsPipelining(t *testing.T) {
	b := &blockingBackend{Backend: oracleBackend{testOracle(t)}, block: oracle.Query{U: 0, V: 1},
		entered: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(b.release) }) }
	defer release()
	addr, _, _ := startTCP(t, NewBackend(b, Config{}))
	c := dialWire(t, addr)

	slow := make(chan error, 1)
	go func() {
		_, err := c.Dist(0, 1)
		slow <- err
	}()
	select {
	case <-b.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the blocking dist never reached the backend")
	}
	fast := make(chan error, 1)
	go func() {
		a, err := c.Dist(2, 3)
		if err == nil && (a.U != 2 || a.V != 3) {
			err = fmt.Errorf("answered for (%d,%d)", a.U, a.V)
		}
		fast <- err
	}()
	select {
	case err := <-fast:
		if err != nil {
			t.Fatalf("dist behind a blocked one: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a dist frame behind one blocked in the backend went unanswered")
	}
	release()
	if err := <-slow; err != nil {
		t.Fatalf("blocked dist after release: %v", err)
	}
}

// TestBinaryIdleTimeout: a binary connection that sends a whole frame and
// half of the next, then nothing, gets the whole frame answered at once —
// the read that waits for the rest must not hold its response — and then
// the idle-timeout error frame and a close.
func TestBinaryIdleTimeout(t *testing.T) {
	const idle = time.Second
	srv := New(testOracle(t), Config{IdleTimeout: idle})
	addr, _, _ := startTCP(t, srv)
	conn := dialBinary(t, addr)

	half := distFrame(2, 2, 3, wire.TraceContext{})
	if _, err := conn.Write(append(distFrame(1, 0, 1, wire.TraceContext{}), half[:len(half)/2]...)); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(idle / 2))
	if resp, err := wire.ReadFrame(conn, 0); err != nil || resp.Type != wire.MsgDistR || resp.ID != 1 {
		t.Fatalf("whole frame before the half one: got %+v, %v; want its answer before the idle timeout", resp, err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("reading the idle-timeout frame: %v", err)
	}
	if resp.Type != wire.MsgErr || resp.ID != 0 || string(resp.Payload) != "idle timeout, closing connection" {
		t.Fatalf("got frame %+v (%q), want the idle-timeout error", resp, resp.Payload)
	}
	if _, err := wire.ReadFrame(conn, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("connection not closed after the idle timeout: %v", err)
	}
	if got := srv.Counter("timeouts"); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
}

// TestBinaryStaleWriteDeadline: a response larger than the session's
// 16 KiB write buffer, sent after the connection idled past
// WriteTimeout, arrives whole. The buffer spills it to the socket before
// any flush, so the deadline must be armed for that write too, not left
// over from the last flush.
func TestBinaryStaleWriteDeadline(t *testing.T) {
	o := testOracle(t)
	srv := New(o, Config{WriteTimeout: 50 * time.Millisecond})
	addr, _, _ := startTCP(t, srv)
	c := dialWire(t, addr)

	if _, err := c.Dist(0, 1); err != nil {
		t.Fatalf("Dist: %v", err)
	}
	time.Sleep(150 * time.Millisecond)
	qs := make([]oracle.Query, 2000) // a 34 KB answer
	for i := range qs {
		qs[i] = oracle.Query{U: int32(i % 128), V: int32(i * 7 % 128)}
	}
	got, err := c.Batch(qs)
	if err != nil {
		t.Fatalf("Batch after an idle spell: %v", err)
	}
	want := o.AnswerBatch(qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// drainOnArm is a connection whose n-th SetReadDeadline call (counting
// from 1) first runs the server's drain, the way Serve's drain runs if
// it lands just before a session arms its idle deadline: the session's
// deadline then overwrites the expired one.
type drainOnArm struct {
	net.Conn
	srv   *Server
	n     int
	calls int
}

func (c *drainOnArm) SetReadDeadline(t time.Time) error {
	c.calls++
	if c.calls == c.n {
		c.srv.draining.Store(true)
		c.Conn.SetReadDeadline(time.Now())
	}
	return c.Conn.SetReadDeadline(t)
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t testing.TB) (server, client net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	if client, err = net.DialTimeout("tcp", l.Addr().String(), 5*time.Second); err != nil {
		t.Fatalf("dial: %v", err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() { server.Close(); client.Close() })
	return server, client
}

// TestDrainRaceWithReadArm: a drain that lands between a session's drain
// check and its idle-deadline arm still ends the session at once, on the
// sniff, in the text loop and in the binary loop, instead of leaving it
// blocked until the idle timeout (here a minute).
func TestDrainRaceWithReadArm(t *testing.T) {
	o := testOracle(t)
	cases := []struct {
		name string
		send []byte
		n    int // the arm the drain lands on
	}{
		{"sniff", nil, 1},
		{"text", []byte("dist 0"), 2},
		{"binary", wire.AppendHello(nil, wire.VersionMin, wire.VersionMax), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv := New(o, Config{IdleTimeout: time.Minute})
			server, client := tcpPair(t)
			if _, err := client.Write(c.send); err != nil {
				t.Fatalf("write: %v", err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.runSession(server, server, &drainOnArm{Conn: server, srv: srv, n: c.n})
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("session kept reading after a drain that landed as it armed its idle deadline")
			}
		})
	}
}
