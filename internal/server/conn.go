package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/wire"
)

// deadliner is the part of net.Conn the session needs for idle/write
// deadlines; a nil deadliner (stdin mode) disables them.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// deadlineWriter is a connection's write side with the write deadline
// armed before every write. Sessions buffer their responses, and a
// buffered writer reaches the connection on a flush or mid-write, when a
// response outgrows its free space; arming here covers both, so no write
// runs under a deadline armed for an earlier one that may have passed
// while the connection sat idle.
type deadlineWriter struct {
	w       io.Writer
	dl      deadliner
	timeout time.Duration
}

// Write arms the write deadline, then writes p to the connection.
func (d deadlineWriter) Write(p []byte) (int, error) {
	d.dl.SetWriteDeadline(time.Now().Add(d.timeout))
	return d.w.Write(p)
}

// session is one connection's protocol state.
type session struct {
	srv *Server
	rd  *lineReader
	w   *bufio.Writer
	dl  deadliner
}

// runSession classifies the connection's protocol from its first byte —
// wire.MagicByte opens a binary frame session, anything else a text line
// session — and runs the matching loop until EOF, "quit", a dead
// connection, an idle timeout, or a server drain.
func (s *Server) runSession(in io.Reader, out io.Writer, dl deadliner) {
	br := bufio.NewReaderSize(in, 4096)
	if dl != nil && s.cfg.WriteTimeout > 0 {
		out = deadlineWriter{w: out, dl: dl, timeout: s.cfg.WriteTimeout}
	}
	// The sniff runs under the idle deadline like any other read: a
	// connection that sends nothing is a slow loris whichever protocol it
	// was going to speak. One byte suffices because the binary magic byte
	// is non-ASCII — peeking more could hang an interactive text client
	// that typed a short line.
	s.armIdle(dl)
	// Checked after arming, like every session read; see armIdle.
	if s.draining.Load() {
		return
	}
	first, err := br.Peek(1)
	if err != nil {
		if isTimeout(err) && !s.draining.Load() {
			s.counters.Add("timeouts", 1)
			s.counters.Add("errs", 1)
			io.WriteString(out, "err idle timeout, closing connection\n")
		}
		return
	}
	if first[0] == wire.MagicByte {
		s.counters.Add("binconns", 1)
		s.runBinarySession(br, out, dl)
		return
	}
	s.runTextSession(br, out, dl)
}

// runTextSession speaks the line protocol over an already-sniffed reader.
// Every exit flushes any pending response first, so an in-flight request
// is answered before the connection closes.
func (s *Server) runTextSession(in io.Reader, out io.Writer, dl deadliner) {
	sess := &session{srv: s, rd: newLineReader(in, s.cfg.MaxLineBytes), w: bufio.NewWriter(out), dl: dl}
	defer sess.w.Flush()
	for {
		s.armIdle(dl)
		if s.draining.Load() {
			return
		}
		line, tooLong, err := sess.rd.readLine()
		if tooLong {
			s.counters.Add("toolong", 1)
			if sess.respondErrf("line too long (max %d bytes)", s.cfg.MaxLineBytes) != nil || err != nil {
				return
			}
			continue
		}
		if err != nil {
			// EOF and mid-line disconnects close silently (there is no one
			// left to answer); an idle timeout tells the slow client why it
			// is being dropped — unless the deadline fired because the
			// server is draining.
			if isTimeout(err) && !s.draining.Load() {
				s.counters.Add("timeouts", 1)
				sess.respondErrf("idle timeout, closing connection")
			}
			return
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" {
			return
		}
		s.counters.Add("requests", 1)
		if sess.handle(line) != nil {
			return
		}
	}
}

// armIdle starts the idle clock for a read that can block. A session
// checks the drain after arming, never only before: Serve's drain stores
// draining before it expires every read deadline, so a drain that lands
// between a check and the arm — whose deadline overwrites the expired
// one — is still seen by the check that follows.
func (s *Server) armIdle(dl deadliner) {
	if dl != nil && s.cfg.IdleTimeout > 0 {
		dl.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
}

// writeLine queues one response line; write errors surface on flush.
func (sess *session) writeLine(line string) {
	sess.w.WriteString(line)
	sess.w.WriteByte('\n')
}

// respond writes and flushes a single response line; a non-nil error means
// the connection is unusable.
func (sess *session) respond(line string) error {
	sess.writeLine(line)
	return sess.w.Flush()
}

// respondErrf answers "err <message>" and counts it.
func (sess *session) respondErrf(format string, args ...any) error {
	sess.srv.counters.Add("errs", 1)
	if len(args) == 0 {
		return sess.respond("err " + format)
	}
	return sess.respond("err " + fmt.Sprintf(format, args...))
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
