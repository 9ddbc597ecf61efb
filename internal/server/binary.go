package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// maxBinaryInflight bounds the frames of one binary connection that run
// on pooled handler goroutines at once: batch and snapshot frames, and
// every frame of a server over another Backend. Pipelining is the point of
// the frame protocol — a router keeps several batches in flight on one
// pooled connection — but one connection must not be able to occupy the
// whole process.
const maxBinaryInflight = 8

// binSession is one binary (internal/wire) connection's state. The reader
// goroutine answers the frames an in-process oracle answers in
// microseconds itself, in order, and hands the others to at most
// maxBinaryInflight pooled handlers, which may complete out of order.
// Responses are buffered in w under wmu and flushed once per burst: when
// the reader has no whole frame left in its read buffer, and when a
// pooled handler finishes.
type binSession struct {
	srv *Server

	wmu sync.Mutex
	w   *bufio.Writer

	wg     sync.WaitGroup
	broken atomic.Bool // a write failed; the connection is done
}

// runBinarySession performs the server side of the version handshake and
// then serves frames until EOF, corruption, an idle timeout, or a drain.
// A drain wakes the blocked read via the expired read deadline, waits for
// in-flight requests, and lets their responses flush — same discipline as
// the text session.
func (s *Server) runBinarySession(br *bufio.Reader, out io.Writer, dl deadliner) {
	bs := &binSession{srv: s, w: bufio.NewWriterSize(out, 16<<10)}

	var hello [wire.HelloLen]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	var version uint16 // 0 refuses the connection
	if cMin, cMax, err := wire.ParseHello(hello[:]); err == nil {
		version, _ = wire.Negotiate(cMin, cMax, wire.VersionMin, wire.VersionMax)
	}
	if version == 0 {
		s.counters.Add("errs", 1)
	}
	bs.w.Write(wire.AppendHelloReply(nil, version)) // a failed write surfaces at the flush
	bs.flush()
	if version == 0 || bs.broken.Load() {
		return
	}

	sem := make(chan struct{}, maxBinaryInflight)
	limit := wire.FrameLimit(s.cfg.MaxBatch)
	var readAt time.Time // when the current burst came off the socket
	for {
		blocking := !wire.FrameBuffered(br)
		if blocking {
			// The burst is answered: send its responses before a read
			// that can wait, and start the idle clock only for such a read.
			bs.flush()
			s.armIdle(dl)
		}
		// Checked after arming: Serve's drain stores draining before it
		// expires every read deadline, so a drain whose expired deadline
		// the arm just overwrote is seen here.
		if s.draining.Load() || bs.broken.Load() {
			break
		}
		f, err := wire.ReadFrame(br, limit)
		if err != nil {
			switch {
			case isTimeout(err) && !s.draining.Load():
				s.counters.Add("timeouts", 1)
				bs.respondErr(0, "idle timeout, closing connection")
			case errors.Is(err, wire.ErrFrameTooBig) || errors.Is(err, wire.ErrShortFrame):
				// Corruption cannot be resynced; say why before closing. The
				// zero id marks a response no request will claim.
				bs.respondErr(0, err.Error())
			}
			break
		}
		if blocking {
			readAt = time.Now()
		}
		s.counters.Add("requests", 1)
		// Every frame of a burst is traced from the burst's read, so the
		// queue hop covers the wait behind earlier frames of the burst and
		// behind the pipelining semaphore.
		tr := bs.maybeTrace(f, readAt)
		if bs.inline(f.Type) {
			bs.handle(f, tr)
			continue
		}
		sem <- struct{}{}
		bs.wg.Add(1)
		go func(f wire.Frame, tr *obs.ReqTrace) {
			defer func() { <-sem; bs.wg.Done() }()
			bs.handle(f, tr)
			bs.flush()
		}(f, tr)
	}
	bs.wg.Wait()
	bs.flush()
}

// inline reports whether a frame of type typ is answered on the reader
// goroutine. An in-process oracle answers a dist, update, info or stats
// frame in microseconds, less than a handler goroutine costs; a batch or
// a snapshot (which may rebuild the spanner) runs long enough to hold up
// the frames behind it, so it keeps the pool. A server over another
// Backend pools every frame: the router's Dist is a round trip to a
// worker, and answering it inline would serialize a connection's
// pipelined dists.
func (bs *binSession) inline(typ byte) bool {
	return bs.srv.o != nil && typ != wire.MsgBatch && typ != wire.MsgSnap
}

// maybeTrace decides whether this request is traced: data requests
// (dist/batch) are traced when the client set the wire sampling bit, or
// when the server-side 1-in-N sampler elects them. A client-carried trace
// id is continued; server-elected traces mint a fresh id. The trace
// starts at readAt, when the frame's bytes came off the socket.
func (bs *binSession) maybeTrace(f wire.Frame, readAt time.Time) *obs.ReqTrace {
	if f.Type != wire.MsgDist && f.Type != wire.MsgBatch {
		return nil
	}
	if f.Trace.Sampled() {
		return obs.NewReqTrace(f.Trace.ID, readAt)
	}
	if bs.srv.shouldSample() {
		return obs.NewReqTrace(0, readAt)
	}
	return nil
}

// handle answers one request frame, on the reader goroutine or on a
// pooled handler; everything it touches is either owned (the frame —
// ReadFrame allocates per frame) or internally synchronized. tr is nil
// for untraced requests; all tracing calls below are nil-safe, so the
// untraced path pays only the nil checks.
func (bs *binSession) handle(f wire.Frame, tr *obs.ReqTrace) {
	srv := bs.srv
	switch f.Type {
	case wire.MsgDist:
		q, err := wire.DecodeQuery(f.Payload)
		if err != nil {
			bs.finishErr(f, tr, err.Error())
			return
		}
		if tr != nil {
			tr.SetVerb("dist", fmt.Sprintf("u=%d v=%d", q.U, q.V))
			tr.Hop("queue", tr.Start(), "")
			srv.stages.observe(srv.stages.queue, srv.stages.queueEx, tr.ID(), tr.Start())
		}
		tb := time.Now()
		a, err := srv.distTrace(q.U, q.V, tr)
		if tr != nil {
			srv.stages.observe(srv.stages.backend, srv.stages.backendEx, tr.ID(), tb)
		}
		if err != nil {
			bs.finishErr(f, tr, err.Error())
			return
		}
		bs.respond(f, tr, wire.Frame{Type: wire.MsgDistR, ID: f.ID, Payload: wire.AppendAnswer(nil, a)})
	case wire.MsgBatch:
		qs, err := wire.DecodeQueries(f.Payload)
		if err != nil {
			bs.finishErr(f, tr, err.Error())
			return
		}
		if len(qs) > srv.cfg.MaxBatch {
			bs.finishErr(f, tr, fmt.Sprintf("batch size must be in [1, %d]", srv.cfg.MaxBatch))
			return
		}
		if tr != nil {
			tr.SetVerb("batch", fmt.Sprintf("n=%d", len(qs)))
			tr.Hop("queue", tr.Start(), "")
			srv.stages.observe(srv.stages.queue, srv.stages.queueEx, tr.ID(), tr.Start())
		}
		// Unlike the text path there is no per-line validation here: the
		// batch goes to the backend as decoded, and invalid queries come
		// back as Unreachable sentinels per oracle.AnswerBatch semantics.
		// That is what keeps a routed batch byte-identical to a local one.
		tb := time.Now()
		as, err := srv.batchTrace(qs, tr)
		if tr != nil {
			srv.stages.observe(srv.stages.backend, srv.stages.backendEx, tr.ID(), tb)
		}
		if err != nil {
			bs.finishErr(f, tr, err.Error())
			return
		}
		srv.counters.Add("batches", 1)
		srv.counters.Add("requests", int64(len(qs)))
		bs.respond(f, tr, wire.Frame{Type: wire.MsgBatchR, ID: f.ID,
			Payload: wire.AppendAnswers(make([]byte, 0, wire.BatchFrameBytes(len(as))), as)})
	case wire.MsgUpdate:
		o, err := srv.dynamicOracle()
		if err != nil {
			bs.respondErr(f.ID, err.Error())
			return
		}
		u, v, add, err := wire.DecodeUpdateReq(f.Payload)
		if err != nil {
			bs.respondErr(f.ID, err.Error())
			return
		}
		res, err := o.Update(u, v, add)
		if err != nil {
			bs.respondErr(f.ID, err.Error())
			return
		}
		bs.writeFrame(wire.Frame{Type: wire.MsgUpdateR, ID: f.ID, Payload: wire.AppendUpdateResult(nil, res)})
	case wire.MsgSnap:
		o, err := srv.dynamicOracle()
		if err != nil {
			bs.respondErr(f.ID, err.Error())
			return
		}
		verify, err := wire.DecodeSnapReq(f.Payload)
		if err != nil {
			bs.respondErr(f.ID, err.Error())
			return
		}
		bs.writeFrame(wire.Frame{Type: wire.MsgSnapR, ID: f.ID,
			Payload: wire.AppendSnapshotInfo(nil, o.Snapshot(verify))})
	case wire.MsgStats:
		bs.writeFrame(wire.Frame{Type: wire.MsgStatsR, ID: f.ID, Payload: []byte(srv.statsLine())})
	case wire.MsgInfo:
		bs.writeFrame(wire.Frame{Type: wire.MsgInfoR, ID: f.ID,
			Payload: wire.AppendInfo(nil, wire.Info{N: srv.b.N(), MaxBatch: srv.cfg.MaxBatch})})
	default:
		bs.respondErr(f.ID, fmt.Sprintf("unknown frame type 0x%02x", f.Type))
	}
}

// respond sends a successful data response, stamping the trace context
// (trace id, sampled bit, resolution-path mask) and completing the trace
// into the flight recorder.
func (bs *binSession) respond(req wire.Frame, tr *obs.ReqTrace, resp wire.Frame) {
	if tr == nil {
		// Untraced: echo the client's trace id (if any) with no sampled
		// bit, so a client that asked for sampling on a request the server
		// dropped tracing for can still correlate.
		resp.Trace = wire.ResponseContext(req.Trace.ID, false, 0)
		bs.writeFrame(resp)
		return
	}
	tw := time.Now()
	resp.Trace = wire.ResponseContext(tr.ID(), true, tr.Path())
	bs.writeFrame(resp)
	tr.Hop("write", tw, "")
	bs.srv.stages.observe(bs.srv.stages.write, bs.srv.stages.writeEx, tr.ID(), tw)
	tr.Finish(bs.srv.cfg.Flight, "")
}

// finishErr answers a request with MsgErr, counts it, and completes the
// trace (errored traces always land in the slow ring).
func (bs *binSession) finishErr(f wire.Frame, tr *obs.ReqTrace, msg string) {
	bs.srv.counters.Add("errs", 1)
	resp := wire.Frame{Type: wire.MsgErr, ID: f.ID, Payload: []byte(msg)}
	if tr != nil {
		resp.Trace = wire.ResponseContext(tr.ID(), true, tr.Path())
	}
	bs.writeFrame(resp)
	tr.Finish(bs.srv.cfg.Flight, msg)
}

// respondErr answers a request with MsgErr and counts it.
func (bs *binSession) respondErr(id uint64, msg string) {
	bs.srv.counters.Add("errs", 1)
	bs.writeFrame(wire.Frame{Type: wire.MsgErr, ID: id, Payload: []byte(msg)})
}

// writeFrame queues one response frame. A frame larger than the
// writer's free space goes out at once, under the write deadline the
// connection's writer arms before each write. A write error marks the
// session broken; later writes become no-ops and the read loop exits at
// its next iteration.
func (bs *binSession) writeFrame(f wire.Frame) {
	bs.wmu.Lock()
	defer bs.wmu.Unlock()
	if bs.broken.Load() {
		return
	}
	if err := wire.WriteFrame(bs.w, f, wire.FrameLimit(bs.srv.cfg.MaxBatch)); err != nil {
		bs.broken.Store(true)
	}
}

// flush sends the queued responses; with none queued it writes nothing.
func (bs *binSession) flush() {
	bs.wmu.Lock()
	defer bs.wmu.Unlock()
	if bs.broken.Load() {
		return
	}
	if err := bs.w.Flush(); err != nil {
		bs.broken.Store(true)
	}
}
