// Package wire is the binary serving wire format: a length-prefixed frame
// protocol carrying dist/batch/stats/info and edge-update/snapshot
// requests with pipelining. Version 1 is the human-readable line protocol
// of internal/server; the binary format is version 4, the only one this
// package speaks. The fleet tier is the consumer — cmd/dcrouter fans
// batches out to workers over pooled connections and cmd/dcload drives
// either server flavor at load.
//
// # Connection establishment
//
// A connection opens with an 8-byte client hello
//
//	magic[4] | minVersion uint16 | maxVersion uint16
//
// and the server answers an 8-byte reply
//
//	magic[4] | version uint16 | flags uint16
//
// where version is the highest protocol version both sides support
// (Negotiate, modeled on udpx's ProtocolVersionAtLeast discipline:
// versions are ordered, and each side states the interval it speaks).
// Today both ends speak exactly [VersionMin, VersionMax] = [4, 4]; the
// interval stays on the wire so a later frame format can negotiate. A
// reply version of 0 means no overlap; the server closes after sending
// it. The first magic byte is deliberately non-ASCII, so a server
// serving both protocols on one port classifies a connection from a
// single peeked byte: 0xD5 is binary, anything else is the text protocol.
//
// # Frames
//
// After the handshake both directions speak frames:
//
//	length uint32 | type uint8 | id uint64 | traceID uint64 | traceFlags uint8 | payload…
//
// length counts everything after itself and is bounded by the receiver's
// frame limit — an oversized length is a protocol error answered before
// any allocation, never an allocation. All integers are big-endian. id is
// assigned by the client and echoed verbatim in the matching response;
// clients may keep any number of requests in flight and servers may
// answer them out of order (pipelining), which is what makes one pooled
// connection carry many concurrent batches.
//
// The trace context (traceID, traceFlags) is always present and is zero
// for untraced requests. traceFlags bit 0 is the sampling bit: a request
// with it set asks the server to record a hop-by-hop trace under traceID
// (see internal/obs.ReqTrace). Responses echo the trace context with bits
// 1..6 reporting the oracle resolution paths taken (the obs.Path* mask
// shifted left by one), so a router can attribute a slow answer to
// bibfs/bulk/exact/hub work without a second round trip. Bits 1 and 2
// carry no path (obs.Path* bits 0 and 1 are unassigned).
//
// # Messages
//
//	MsgDist   -> MsgDistR   one distance query / one Answer
//	MsgBatch  -> MsgBatchR  count-prefixed query slice / Answer slice
//	MsgStats  -> MsgStatsR  server stats report (UTF-8 text)
//	MsgInfo   -> MsgInfoR   vertex count + batch limit of the server
//	MsgUpdate -> MsgUpdateR one edge insert/delete / UpdateResult
//	MsgSnap   -> MsgSnapR   state snapshot, optionally verified
//	          <- MsgErr     UTF-8 error text for the echoed id
//
// Servers without a dynamic engine behind them answer MsgUpdate/MsgSnap
// with MsgErr — speaking the protocol means understanding the frames,
// not necessarily serving mutations.
//
// Batch answers mirror oracle.AnswerBatch exactly — invalid queries
// answer the Unreachable sentinel at their index instead of failing the
// batch — so a routed batch is byte-identical to a single-process one
// (the property internal/check's router differential gates on).
package wire

import "fmt"

// Magic prefixes every binary connection in both directions. MagicByte
// (the first byte) is the protocol discriminator: no text-protocol
// request can begin with it.
var Magic = [4]byte{0xD5, 'C', 'P', '2'}

// MagicByte is Magic[0], exported for single-byte protocol sniffing.
const MagicByte = 0xD5

// The protocol versions this package speaks. Version 1 is the text line
// protocol (never spoken in frames); the one binary frame format is
// version 4. Older binary versions are refused at the handshake.
const (
	VersionMin uint16 = 4
	VersionMax uint16 = 4
)

// Frame types. Requests have the high bit clear, responses set; MsgErr
// answers any request type.
const (
	MsgDist    byte = 0x01
	MsgBatch   byte = 0x02
	MsgStats   byte = 0x03
	MsgInfo    byte = 0x04
	MsgUpdate  byte = 0x05
	MsgSnap    byte = 0x06
	MsgDistR   byte = 0x81
	MsgBatchR  byte = 0x82
	MsgStatsR  byte = 0x83
	MsgInfoR   byte = 0x84
	MsgUpdateR byte = 0x85
	MsgSnapR   byte = 0x86
	MsgErr     byte = 0xFF
)

// Sizes of the fixed wire structures.
const (
	HelloLen = 8 // magic[4] + two uint16
	// frameHeaderLen is the length prefix itself.
	frameHeaderLen = 4
	// frameBodyMin is type + id + trace context (traceID uint64 +
	// flags uint8), the smallest legal frame body.
	frameBodyMin = 1 + 8 + 8 + 1
	// queryLen is one encoded Query (u, v int32).
	queryLen = 8
	// answerLen is one encoded Answer (u, v, dist, bound int32 + flags).
	answerLen = 17
	// updateReqLen is one encoded update request (u, v uint32 + op byte).
	updateReqLen = 9
	// updateRespLen is one encoded UpdateResult (flags byte, of which
	// only bit 0 is assigned, + m, hm uint32 + seq uint64).
	updateRespLen = 17
	// snapReqLen is one encoded snapshot request (flags byte).
	snapReqLen = 1
	// snapRespLen is one encoded SnapshotInfo (n, m, hm uint32 + seq,
	// ghash, hhash uint64 + flags byte).
	snapRespLen = 37
)

// Trace-context flag bits.
const (
	// TraceFlagSampled marks the request for hop-by-hop recording; on a
	// response it confirms the server traced the request.
	TraceFlagSampled byte = 1 << 0
	// tracePathShift positions the obs.Path* resolution mask (6 bits)
	// inside response flags.
	tracePathShift = 1
	tracePathBits  = 0x3F
)

// TraceContext is the per-frame trace field every frame carries: a
// client-assigned 64-bit trace id plus flag bits. The zero value means
// "untraced" and encodes as nine zero bytes.
type TraceContext struct {
	ID    uint64
	Flags byte
}

// Sampled reports whether the sampling bit is set.
func (tc TraceContext) Sampled() bool { return tc.Flags&TraceFlagSampled != 0 }

// PathMask extracts the resolution-path mask from response flags
// (an obs.Path* bit set).
func (tc TraceContext) PathMask() uint8 { return uint8(tc.Flags>>tracePathShift) & tracePathBits }

// SampledContext builds a request trace context asking for recording.
func SampledContext(id uint64) TraceContext {
	return TraceContext{ID: id, Flags: TraceFlagSampled}
}

// ResponseContext builds the trace context a server echoes: the request
// id, the sampled bit if it traced, and the resolution-path mask.
func ResponseContext(id uint64, sampled bool, pathMask uint8) TraceContext {
	tc := TraceContext{ID: id, Flags: byte(pathMask&tracePathBits) << tracePathShift}
	if sampled {
		tc.Flags |= TraceFlagSampled
	}
	return tc
}

// DefaultMaxFrameBytes bounds one frame body (everything after the length
// prefix) when the caller does not choose a limit. It comfortably holds
// the default server batch limit (16384 answers ≈ 272 KiB).
const DefaultMaxFrameBytes = 1 << 20

// Negotiate resolves the version spoken on a connection: the highest
// version inside both [cMin, cMax] and [sMin, sMax]. ok is false when
// the intervals do not overlap (or either is empty).
func Negotiate(cMin, cMax, sMin, sMax uint16) (version uint16, ok bool) {
	lo, hi := cMin, cMax
	if sMin > lo {
		lo = sMin
	}
	if sMax < hi {
		hi = sMax
	}
	if lo > hi {
		return 0, false
	}
	return hi, true
}

// RemoteError is a MsgErr response: the server answered the request with
// a protocol-level error instead of a result.
type RemoteError struct{ Msg string }

// Error implements error: the server's message under a "wire: remote
// error" prefix.
func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// protocol corruption errors (distinct from io errors: the connection
// cannot be resynced and must close).
var (
	ErrBadMagic    = fmt.Errorf("wire: bad magic")
	ErrFrameTooBig = fmt.Errorf("wire: frame exceeds size limit")
	ErrShortFrame  = fmt.Errorf("wire: frame shorter than its fixed header")
)
