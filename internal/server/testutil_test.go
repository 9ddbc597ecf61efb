package server

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// testOracle builds a 128-node Δ=32 expander DC-spanner oracle, the
// standard serving fixture.
func testOracle(t testing.TB) *oracle.Oracle {
	t.Helper()
	g := gen.MustRandomRegular(128, 32, rng.New(3))
	dc, err := core.Build(g, core.Options{
		Algorithm: core.AlgoExpander,
		Seed:      3,
		Expander:  spanner.ExpanderOptions{EnsureConnected: true},
	})
	if err != nil {
		t.Fatalf("core.Build: %v", err)
	}
	o, err := oracle.New(dc, oracle.Options{})
	if err != nil {
		t.Fatalf("oracle.New: %v", err)
	}
	return o
}

// runScript feeds input through ServeStream and returns the response lines.
func runScript(t testing.TB, srv *Server, input string) []string {
	t.Helper()
	var out bytes.Buffer
	srv.ServeStream(context.Background(), strings.NewReader(input), &out)
	s := strings.TrimRight(out.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// startTCP serves srv on a loopback listener until the test ends (or the
// returned cancel is called) and reports the dial address plus a channel
// carrying Serve's return value.
func startTCP(t testing.TB, srv *Server) (addr string, cancel context.CancelFunc, done chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan error, 1)
	finished := make(chan struct{})
	go func() {
		done <- srv.Serve(ctx, l)
		close(finished)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after cancel")
		}
	})
	return l.Addr().String(), cancel, done
}

// client is a test-side protocol connection with read timeouts, so a
// server that silently drops a response fails the test instead of hanging
// it.
type client struct {
	t    testing.TB
	conn net.Conn
	rd   *bufio.Reader
}

func dialClient(t testing.TB, addr string) *client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{t: t, conn: conn, rd: bufio.NewReader(conn)}
}

func (c *client) send(line string) {
	c.t.Helper()
	c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		c.t.Fatalf("send %q: %v", line, err)
	}
}

// readLine returns the next response line; fails the test after timeout.
func (c *client) readLine() string {
	c.t.Helper()
	line, err := c.tryReadLine(5 * time.Second)
	if err != nil {
		c.t.Fatalf("readLine: %v", err)
	}
	return line
}

// tryReadLine is readLine that surfaces the error (for EOF assertions).
func (c *client) tryReadLine(timeout time.Duration) (string, error) {
	c.conn.SetReadDeadline(time.Now().Add(timeout))
	line, err := c.rd.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}

// stripLatency drops the trailing " us=<...>" field from a dist response
// so sequential answers compare against batch answers.
func stripLatency(line string) string {
	if i := strings.LastIndex(line, " us="); i >= 0 {
		return line[:i]
	}
	return line
}
