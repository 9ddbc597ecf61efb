package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/oracle"
)

// Frame is one decoded protocol frame. ReadFrame allocates Payload per
// frame, so a frame stays valid while later frames are read — which is
// what lets a pipelining server hand a slow frame (a batch) to a pooled
// handler and read on. Trace is zero for untraced requests.
type Frame struct {
	Type    byte
	ID      uint64
	Trace   TraceContext
	Payload []byte
}

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice.
func AppendFrame(dst []byte, f Frame) []byte {
	return append(appendFrameHeader(dst, f), f.Payload...)
}

// appendFrameHeader appends f's length prefix and fixed body header —
// everything of the frame but the payload.
func appendFrameHeader(dst []byte, f Frame) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameBodyMin+len(f.Payload)))
	dst = append(dst, f.Type)
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = binary.BigEndian.AppendUint64(dst, f.Trace.ID)
	return append(dst, f.Trace.Flags)
}

// AppendFrameV is AppendFrame; the version argument is ignored.
//
// Deprecated: there is one frame format, so there is no version to
// select; use AppendFrame. It remains because the servebench module
// still calls it.
func AppendFrameV(dst []byte, f Frame, _ uint16) []byte { return AppendFrame(dst, f) }

// WriteFrame writes one frame as two writes to w, the header from a small
// array and then the payload, so the payload is never copied. Pass a
// buffered writer (a bufio.Writer the caller flushes); unbuffered, each
// half would go out on its own. After a failed write part of the frame
// may be out, so the stream is unusable and the connection must close.
// maxBody bounds the frame body exactly like ReadFrame, so a writer never
// emits a frame its symmetric peer must reject (0 means
// DefaultMaxFrameBytes); an oversized frame writes nothing.
func WriteFrame(w io.Writer, f Frame, maxBody int) error {
	if maxBody <= 0 {
		maxBody = DefaultMaxFrameBytes
	}
	if body := frameBodyMin + len(f.Payload); body > maxBody {
		return fmt.Errorf("%w (payload %d, limit %d)", ErrFrameTooBig, len(f.Payload), maxBody)
	}
	var hdr [frameHeaderLen + frameBodyMin]byte
	if _, err := w.Write(appendFrameHeader(hdr[:0], f)); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame reads one frame. maxBody bounds the frame body (everything
// after the length prefix; 0 means DefaultMaxFrameBytes): a length prefix
// above it returns ErrFrameTooBig before any allocation, so a hostile
// 4 GiB length costs the server four bytes of reading and nothing else.
// A length below the fixed body header returns ErrShortFrame. Either
// corruption error leaves the stream unsynchronized — the connection
// must close.
func ReadFrame(r io.Reader, maxBody int) (Frame, error) {
	if maxBody <= 0 {
		maxBody = DefaultMaxFrameBytes
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	body := binary.BigEndian.Uint32(hdr[:])
	if body > uint32(maxBody) {
		return Frame{}, fmt.Errorf("%w (length %d, limit %d)", ErrFrameTooBig, body, maxBody)
	}
	if body < frameBodyMin {
		return Frame{}, fmt.Errorf("%w (length %d)", ErrShortFrame, body)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		// A truncated body is a dead or lying peer either way.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{
		Type:    buf[0],
		ID:      binary.BigEndian.Uint64(buf[1:9]),
		Trace:   TraceContext{ID: binary.BigEndian.Uint64(buf[9:17]), Flags: buf[17]},
		Payload: buf[frameBodyMin:],
	}, nil
}

// FrameBuffered reports whether br's buffer already holds the whole next
// frame, so reading it cannot block on the connection. It peeks only
// bytes already buffered and never reads. A server answers the frames of
// one burst from the buffer and flushes their responses once, when the
// next read would wait.
func FrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < frameHeaderLen {
		return false
	}
	hdr, _ := br.Peek(frameHeaderLen) // buffered, so Peek does no read
	return uint64(binary.BigEndian.Uint32(hdr)) <= uint64(n-frameHeaderLen)
}

// AppendHello appends the 8-byte client hello advertising [minV, maxV].
func AppendHello(dst []byte, minV, maxV uint16) []byte {
	dst = append(dst, Magic[:]...)
	dst = binary.BigEndian.AppendUint16(dst, minV)
	return binary.BigEndian.AppendUint16(dst, maxV)
}

// ParseHello decodes a client hello. Short input or wrong magic errors.
func ParseHello(b []byte) (minV, maxV uint16, err error) {
	if len(b) < HelloLen {
		return 0, 0, fmt.Errorf("wire: hello is %d bytes, want %d", len(b), HelloLen)
	}
	if [4]byte(b[:4]) != Magic {
		return 0, 0, ErrBadMagic
	}
	return binary.BigEndian.Uint16(b[4:6]), binary.BigEndian.Uint16(b[6:8]), nil
}

// AppendHelloReply appends the 8-byte server reply carrying the
// negotiated version (0 = negotiation failed, connection closing).
func AppendHelloReply(dst []byte, version uint16) []byte {
	dst = append(dst, Magic[:]...)
	dst = binary.BigEndian.AppendUint16(dst, version)
	return binary.BigEndian.AppendUint16(dst, 0) // flags, reserved
}

// ParseHelloReply decodes the server hello reply.
func ParseHelloReply(b []byte) (version uint16, err error) {
	if len(b) < HelloLen {
		return 0, fmt.Errorf("wire: hello reply is %d bytes, want %d", len(b), HelloLen)
	}
	if [4]byte(b[:4]) != Magic {
		return 0, ErrBadMagic
	}
	return binary.BigEndian.Uint16(b[4:6]), nil
}

// AppendQuery appends one encoded query.
func AppendQuery(dst []byte, q oracle.Query) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(q.U))
	return binary.BigEndian.AppendUint32(dst, uint32(q.V))
}

// DecodeQuery decodes a MsgDist payload.
func DecodeQuery(b []byte) (oracle.Query, error) {
	if len(b) != queryLen {
		return oracle.Query{}, fmt.Errorf("wire: dist payload is %d bytes, want %d", len(b), queryLen)
	}
	return oracle.Query{
		U: int32(binary.BigEndian.Uint32(b[0:4])),
		V: int32(binary.BigEndian.Uint32(b[4:8])),
	}, nil
}

// AppendQueries appends a count-prefixed query slice (a MsgBatch payload).
func AppendQueries(dst []byte, qs []oracle.Query) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(qs)))
	for _, q := range qs {
		dst = AppendQuery(dst, q)
	}
	return dst
}

// DecodeQueries decodes a MsgBatch payload. The declared count must
// account for the payload exactly — a count that disagrees with the
// bytes actually present errors instead of trusting either side, so the
// count can never drive an allocation beyond the (already length-bounded)
// payload.
func DecodeQueries(b []byte) ([]oracle.Query, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: batch payload is %d bytes, want >= 4", len(b))
	}
	count := binary.BigEndian.Uint32(b[:4])
	rest := b[4:]
	if uint64(count)*queryLen != uint64(len(rest)) {
		return nil, fmt.Errorf("wire: batch declares %d queries but carries %d bytes", count, len(rest))
	}
	qs := make([]oracle.Query, count)
	for i := range qs {
		qs[i] = oracle.Query{
			U: int32(binary.BigEndian.Uint32(rest[i*queryLen:])),
			V: int32(binary.BigEndian.Uint32(rest[i*queryLen+4:])),
		}
	}
	return qs, nil
}

const answerFlagExact = 1 << 0

// AppendAnswer appends one encoded answer.
func AppendAnswer(dst []byte, a oracle.Answer) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.U))
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.V))
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.Dist))
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.Bound))
	var flags byte
	if a.Exact {
		flags |= answerFlagExact
	}
	return append(dst, flags)
}

func decodeAnswer(b []byte) oracle.Answer {
	return oracle.Answer{
		U:     int32(binary.BigEndian.Uint32(b[0:4])),
		V:     int32(binary.BigEndian.Uint32(b[4:8])),
		Dist:  int32(binary.BigEndian.Uint32(b[8:12])),
		Bound: int32(binary.BigEndian.Uint32(b[12:16])),
		Exact: b[16]&answerFlagExact != 0,
	}
}

// DecodeAnswer decodes a MsgDistR payload.
func DecodeAnswer(b []byte) (oracle.Answer, error) {
	if len(b) != answerLen {
		return oracle.Answer{}, fmt.Errorf("wire: answer payload is %d bytes, want %d", len(b), answerLen)
	}
	return decodeAnswer(b), nil
}

// AppendAnswers appends a count-prefixed answer slice (a MsgBatchR
// payload).
func AppendAnswers(dst []byte, as []oracle.Answer) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(as)))
	for _, a := range as {
		dst = AppendAnswer(dst, a)
	}
	return dst
}

// DecodeAnswers decodes a MsgBatchR payload under the same
// count-must-match-bytes rule as DecodeQueries.
func DecodeAnswers(b []byte) ([]oracle.Answer, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: batch answer payload is %d bytes, want >= 4", len(b))
	}
	count := binary.BigEndian.Uint32(b[:4])
	rest := b[4:]
	if uint64(count)*answerLen != uint64(len(rest)) {
		return nil, fmt.Errorf("wire: batch answer declares %d answers but carries %d bytes", count, len(rest))
	}
	as := make([]oracle.Answer, count)
	for i := range as {
		as[i] = decodeAnswer(rest[i*answerLen:])
	}
	return as, nil
}

// Update request op codes (one byte on the wire — boolean today, a byte
// so a future op, e.g. a weighted re-label, needs no new message type).
const (
	updateOpAdd = 0
	updateOpDel = 1
)

// AppendUpdateReq appends an encoded MsgUpdate payload: one edge
// mutation of the live base graph.
func AppendUpdateReq(dst []byte, u, v int32, add bool) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(u))
	dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	op := byte(updateOpDel)
	if add {
		op = updateOpAdd
	}
	return append(dst, op)
}

// DecodeUpdateReq decodes a MsgUpdate payload.
func DecodeUpdateReq(b []byte) (u, v int32, add bool, err error) {
	if len(b) != updateReqLen {
		return 0, 0, false, fmt.Errorf("wire: update payload is %d bytes, want %d", len(b), updateReqLen)
	}
	switch b[8] {
	case updateOpAdd:
		add = true
	case updateOpDel:
		add = false
	default:
		return 0, 0, false, fmt.Errorf("wire: update op 0x%02x, want add (0) or del (1)", b[8])
	}
	return int32(binary.BigEndian.Uint32(b[0:4])), int32(binary.BigEndian.Uint32(b[4:8])), add, nil
}

const updateFlagApplied = 1 << 0

// AppendUpdateResult appends an encoded MsgUpdateR payload.
func AppendUpdateResult(dst []byte, res oracle.UpdateResult) []byte {
	var flags byte
	if res.Applied {
		flags |= updateFlagApplied
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(res.M))
	dst = binary.BigEndian.AppendUint32(dst, uint32(res.HM))
	return binary.BigEndian.AppendUint64(dst, res.Seq)
}

// DecodeUpdateResult decodes a MsgUpdateR payload.
func DecodeUpdateResult(b []byte) (oracle.UpdateResult, error) {
	if len(b) != updateRespLen {
		return oracle.UpdateResult{}, fmt.Errorf("wire: update result payload is %d bytes, want %d", len(b), updateRespLen)
	}
	return oracle.UpdateResult{
		Applied: b[0]&updateFlagApplied != 0,
		M:       int(binary.BigEndian.Uint32(b[1:5])),
		HM:      int(binary.BigEndian.Uint32(b[5:9])),
		Seq:     binary.BigEndian.Uint64(b[9:17]),
	}, nil
}

const snapFlagVerify = 1 << 0

// AppendSnapReq appends an encoded MsgSnap payload.
func AppendSnapReq(dst []byte, verify bool) []byte {
	var flags byte
	if verify {
		flags |= snapFlagVerify
	}
	return append(dst, flags)
}

// DecodeSnapReq decodes a MsgSnap payload.
func DecodeSnapReq(b []byte) (verify bool, err error) {
	if len(b) != snapReqLen {
		return false, fmt.Errorf("wire: snapshot payload is %d bytes, want %d", len(b), snapReqLen)
	}
	return b[0]&snapFlagVerify != 0, nil
}

const (
	snapFlagVerified   = 1 << 0
	snapFlagConsistent = 1 << 1
)

// AppendSnapshotInfo appends an encoded MsgSnapR payload.
func AppendSnapshotInfo(dst []byte, info oracle.SnapshotInfo) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(info.N))
	dst = binary.BigEndian.AppendUint32(dst, uint32(info.M))
	dst = binary.BigEndian.AppendUint32(dst, uint32(info.HM))
	dst = binary.BigEndian.AppendUint64(dst, info.Seq)
	dst = binary.BigEndian.AppendUint64(dst, info.GraphHash)
	dst = binary.BigEndian.AppendUint64(dst, info.SpannerHash)
	var flags byte
	if info.Verified {
		flags |= snapFlagVerified
	}
	if info.Consistent {
		flags |= snapFlagConsistent
	}
	return append(dst, flags)
}

// DecodeSnapshotInfo decodes a MsgSnapR payload.
func DecodeSnapshotInfo(b []byte) (oracle.SnapshotInfo, error) {
	if len(b) != snapRespLen {
		return oracle.SnapshotInfo{}, fmt.Errorf("wire: snapshot info payload is %d bytes, want %d", len(b), snapRespLen)
	}
	return oracle.SnapshotInfo{
		N:           int(binary.BigEndian.Uint32(b[0:4])),
		M:           int(binary.BigEndian.Uint32(b[4:8])),
		HM:          int(binary.BigEndian.Uint32(b[8:12])),
		Seq:         binary.BigEndian.Uint64(b[12:20]),
		GraphHash:   binary.BigEndian.Uint64(b[20:28]),
		SpannerHash: binary.BigEndian.Uint64(b[28:36]),
		Verified:    b[36]&snapFlagVerified != 0,
		Consistent:  b[36]&snapFlagConsistent != 0,
	}, nil
}

// Info is the MsgInfoR payload: the serving shape a client needs before
// generating traffic.
type Info struct {
	N        int // vertex count; queries must have endpoints in [0, N)
	MaxBatch int // largest accepted batch
}

// AppendInfo appends an encoded Info.
func AppendInfo(dst []byte, info Info) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(info.N))
	return binary.BigEndian.AppendUint32(dst, uint32(info.MaxBatch))
}

// DecodeInfo decodes a MsgInfoR payload.
func DecodeInfo(b []byte) (Info, error) {
	if len(b) != 8 {
		return Info{}, fmt.Errorf("wire: info payload is %d bytes, want 8", len(b))
	}
	return Info{
		N:        int(binary.BigEndian.Uint32(b[0:4])),
		MaxBatch: int(binary.BigEndian.Uint32(b[4:8])),
	}, nil
}

// BatchFrameBytes returns the frame-body size of a batch request or
// response carrying n entries.
func BatchFrameBytes(n int) int {
	return frameBodyMin + 4 + n*answerLen
}

// FrameLimit returns the frame-body limit for a peer whose batch limit
// is maxBatch: room for a full batch response plus headroom, never below
// DefaultMaxFrameBytes. A server reads and writes with it, and a client
// of that server reads with it, so the two limits can never disagree.
func FrameLimit(maxBatch int) int {
	if need := BatchFrameBytes(maxBatch) + 64; need > DefaultMaxFrameBytes {
		return need
	}
	return DefaultMaxFrameBytes
}
