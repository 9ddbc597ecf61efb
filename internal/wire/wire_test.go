package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/oracle"
)

func TestNegotiate(t *testing.T) {
	cases := []struct {
		cMin, cMax, sMin, sMax uint16
		want                   uint16
		ok                     bool
	}{
		{2, 2, 2, 2, 2, true},
		{2, 3, 2, 2, 2, true},  // client newer, server caps
		{2, 2, 2, 5, 2, true},  // server newer, client caps
		{3, 7, 2, 4, 4, true},  // overlap picks the highest common
		{3, 3, 4, 9, 0, false}, // disjoint (client too old)
		{5, 9, 2, 4, 0, false}, // disjoint (server too old)
		{4, 2, 2, 9, 0, false}, // empty client interval
		{2, 9, 2, 9, 9, true},
	}
	for _, c := range cases {
		got, ok := Negotiate(c.cMin, c.cMax, c.sMin, c.sMax)
		if got != c.want || ok != c.ok {
			t.Errorf("Negotiate(%d,%d,%d,%d) = (%d,%v), want (%d,%v)",
				c.cMin, c.cMax, c.sMin, c.sMax, got, ok, c.want, c.ok)
		}
	}
}

// readCounter is an io.Reader over fixed bytes that counts its Read
// calls, so a test can check a bufio.Reader was served from its buffer.
type readCounter struct {
	b     []byte
	reads int
}

func (r *readCounter) Read(p []byte) (int, error) {
	r.reads++
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestFrameBuffered: the helper reports a whole next frame only from
// bytes already buffered, and never reads to find out.
func TestFrameBuffered(t *testing.T) {
	f := AppendFrame(nil, Frame{Type: MsgDist, ID: 7, Payload: AppendQuery(nil, oracle.Query{U: 1, V: 2})})
	two := append(append([]byte(nil), f...), f...)
	cases := []struct {
		name string
		in   []byte
		want bool
	}{
		{"partial length", f[:frameHeaderLen-1], false},
		{"length only", f[:frameHeaderLen], false},
		{"partial body", f[:len(f)-1], false},
		{"one frame", f, true},
		{"frame and a half", two[:len(f)+frameHeaderLen+1], true},
		{"length over any buffer", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0}, false},
	}
	for _, c := range cases {
		rc := &readCounter{b: c.in}
		br := bufio.NewReader(rc)
		br.Peek(1) // one fill takes everything the peer sent
		if got := FrameBuffered(br); got != c.want {
			t.Errorf("%s: FrameBuffered = %v, want %v", c.name, got, c.want)
		}
		if rc.reads != 1 {
			t.Errorf("%s: FrameBuffered read from the connection (%d reads)", c.name, rc.reads)
		}
	}

	// Once the buffered frame is consumed, the half frame behind it does
	// not count.
	rc := &readCounter{b: two[:len(f)+frameHeaderLen+1]}
	br := bufio.NewReader(rc)
	if _, err := ReadFrame(br, 0); err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if FrameBuffered(br) || rc.reads != 1 {
		t.Fatalf("after one frame: FrameBuffered = %v after %d reads, want false after 1", FrameBuffered(br), rc.reads)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	b := AppendHello(nil, 2, 7)
	if len(b) != HelloLen {
		t.Fatalf("hello is %d bytes, want %d", len(b), HelloLen)
	}
	minV, maxV, err := ParseHello(b)
	if err != nil || minV != 2 || maxV != 7 {
		t.Fatalf("ParseHello = (%d,%d,%v), want (2,7,nil)", minV, maxV, err)
	}
	if _, _, err := ParseHello(b[:5]); err == nil {
		t.Fatal("short hello accepted")
	}
	bad := append([]byte(nil), b...)
	bad[0] = 'x'
	if _, _, err := ParseHello(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic error = %v, want ErrBadMagic", err)
	}

	r := AppendHelloReply(nil, 2)
	v, err := ParseHelloReply(r)
	if err != nil || v != 2 {
		t.Fatalf("ParseHelloReply = (%d,%v), want (2,nil)", v, err)
	}
}

func TestMagicByteIsNonASCII(t *testing.T) {
	// The protocol sniffer relies on no text request starting with the
	// magic byte; ASCII (or even valid UTF-8 single bytes) would break it.
	if Magic[0] != MagicByte || MagicByte < 0x80 {
		t.Fatalf("Magic[0] = 0x%02x must be the non-ASCII MagicByte", Magic[0])
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: MsgStats, ID: 1},
		{Type: MsgDist, ID: 0xdeadbeef, Payload: AppendQuery(nil, oracle.Query{U: 3, V: -1})},
		{Type: MsgBatchR, ID: 1 << 60, Payload: bytes.Repeat([]byte{0xab}, 999)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f, 0); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("trailing read = %v, want EOF", err)
	}

	// WriteFrame's header-then-payload writes put AppendFrame's bytes on
	// the wire, up to a payload that fills the frame limit exactly.
	for _, size := range []int{0, 1, DefaultMaxFrameBytes - frameBodyMin} {
		f := Frame{Type: MsgBatchR, ID: 42, Trace: TraceContext{ID: 7, Flags: 1},
			Payload: bytes.Repeat([]byte{0x5a}, size)}
		buf.Reset()
		if err := WriteFrame(&buf, f, 0); err != nil {
			t.Fatalf("payload %d: WriteFrame: %v", size, err)
		}
		if !bytes.Equal(buf.Bytes(), AppendFrame(nil, f)) {
			t.Fatalf("payload %d: WriteFrame bytes differ from AppendFrame's", size)
		}
	}
}

// WriteFrame never copies the payload: what it allocates per frame is the
// same for a 1-byte and a 64 KiB payload (a copy would cost 64 KiB; the
// slack only absorbs a stray allocation elsewhere in the process).
func TestWriteFrameCostIndependentOfPayload(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := bufio.NewWriterSize(io.Discard, 128<<10)
	perFrame := func(size int) (allocs, allocBytes float64) {
		f := Frame{Type: MsgBatchR, ID: 1, Payload: make([]byte, size)}
		const runs = 200
		write := func() {
			if err := WriteFrame(w, f, 0); err != nil {
				t.Fatal(err)
			}
			w.Flush()
		}
		write()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			write()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs,
			float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallN, smallB := perFrame(1)
	bigN, bigB := perFrame(64 << 10)
	if bigN > smallN+0.5 || bigB > smallB+512 {
		t.Fatalf("64 KiB payload: %.2f allocs, %.0f B per frame; 1 B payload: %.2f allocs, %.0f B",
			bigN, bigB, smallN, smallB)
	}
}

func TestFrameLimits(t *testing.T) {
	// Oversized length prefix: rejected after 4 bytes, before allocation.
	huge := binary.BigEndian.AppendUint32(nil, 1<<31)
	if _, err := ReadFrame(bytes.NewReader(huge), 1024); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized frame error = %v, want ErrFrameTooBig", err)
	}
	// Undersized length prefixes: too short for type + id, type + id with
	// no trace context, and one byte short of the full header.
	for _, body := range []uint32{3, 1 + 8, frameBodyMin - 1} {
		tiny := binary.BigEndian.AppendUint32(nil, body)
		if _, err := ReadFrame(bytes.NewReader(tiny), 1024); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("length %d: short frame error = %v, want ErrShortFrame", body, err)
		}
	}
	// Truncated body.
	trunc := AppendFrame(nil, Frame{Type: MsgStats, ID: 9, Payload: []byte("abcdef")})
	if _, err := ReadFrame(bytes.NewReader(trunc[:len(trunc)-3]), 1024); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame error = %v, want ErrUnexpectedEOF", err)
	}
	// Writer refuses frames its peer would reject.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgStats, ID: 1, Payload: make([]byte, 100)}, 50); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized write error = %v, want ErrFrameTooBig", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected write still emitted %d bytes", buf.Len())
	}
}

func TestQueryAnswerCodecs(t *testing.T) {
	qs := []oracle.Query{{U: 0, V: 0}, {U: 7, V: 12}, {U: -1, V: 1 << 30}}
	got, err := DecodeQueries(AppendQueries(nil, qs))
	if err != nil {
		t.Fatalf("DecodeQueries: %v", err)
	}
	if len(got) != len(qs) {
		t.Fatalf("decoded %d queries, want %d", len(got), len(qs))
	}
	for i := range qs {
		if got[i] != qs[i] {
			t.Fatalf("query %d: got %+v, want %+v", i, got[i], qs[i])
		}
	}

	as := []oracle.Answer{
		{U: 1, V: 2, Dist: 3, Bound: 5, Exact: true},
		{U: 0, V: 9, Dist: -1, Bound: -1, Exact: false}, // Unreachable sentinels survive
	}
	back, err := DecodeAnswers(AppendAnswers(nil, as))
	if err != nil {
		t.Fatalf("DecodeAnswers: %v", err)
	}
	for i := range as {
		if back[i] != as[i] {
			t.Fatalf("answer %d: got %+v, want %+v", i, back[i], as[i])
		}
	}

	// Count/byte disagreement must error, not allocate the declared count.
	lying := AppendQueries(nil, qs)
	binary.BigEndian.PutUint32(lying[:4], 1<<30)
	if _, err := DecodeQueries(lying); err == nil || !strings.Contains(err.Error(), "declares") {
		t.Fatalf("lying count error = %v", err)
	}
	lyingA := AppendAnswers(nil, as)
	binary.BigEndian.PutUint32(lyingA[:4], 7)
	if _, err := DecodeAnswers(lyingA); err == nil {
		t.Fatal("lying answer count accepted")
	}
}

func TestInfoCodec(t *testing.T) {
	info := Info{N: 4096, MaxBatch: 16384}
	got, err := DecodeInfo(AppendInfo(nil, info))
	if err != nil || got != info {
		t.Fatalf("info round trip = (%+v, %v), want (%+v, nil)", got, err, info)
	}
	if _, err := DecodeInfo([]byte{1, 2, 3}); err == nil {
		t.Fatal("short info accepted")
	}
}
