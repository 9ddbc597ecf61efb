package wire

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/oracle"
)

// TestCrossVersionV4ClientV4Server: a sampled request's trace context
// reaches the server, and the response echoes the trace id, the sampled
// bit and the server's path mask.
func TestCrossVersionV4ClientV4Server(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame {
		q, err := DecodeQuery(f.Payload)
		if err != nil {
			return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte(err.Error())}
		}
		return &Frame{
			Type:    MsgDistR,
			ID:      f.ID,
			Trace:   ResponseContext(f.Trace.ID, f.Trace.Sampled(), 0x4),
			Payload: AppendAnswer(nil, oracle.Answer{U: q.U, V: q.V, Dist: q.U + q.V, Exact: true}),
		}
	})
	c, err := Dial(addr, ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	a, tc, err := c.DistTraced(2, 3, SampledContext(0xdeadbeef))
	if err != nil || a.Dist != 5 {
		t.Fatalf("DistTraced = (%+v, %v), want dist 5", a, err)
	}
	if tc.ID != 0xdeadbeef || !tc.Sampled() || tc.PathMask() != 0x4 {
		t.Fatalf("echoed trace = %+v, want id 0xdeadbeef sampled path 0x4", tc)
	}
}

func TestUpdateSnapRoundTrip(t *testing.T) {
	wantRes := oracle.UpdateResult{Applied: true, M: 123, HM: 77, Seq: 42}
	// The payload size is part of the protocol: flags byte, m, hm, seq.
	if got := len(AppendUpdateResult(nil, wantRes)); got != 17 {
		t.Fatalf("MsgUpdateR payload is %d bytes, want 17", got)
	}
	wantInfo := oracle.SnapshotInfo{
		N: 64, M: 123, HM: 77, Seq: 42,
		GraphHash: 0x0123456789abcdef, SpannerHash: 0xfedcba9876543210,
		Verified: true, Consistent: true,
	}
	addr := stubServer(t, func(f Frame) *Frame {
		switch f.Type {
		case MsgUpdate:
			u, v, add, err := DecodeUpdateReq(f.Payload)
			if err != nil || u != 3 || v != 9 || add {
				return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte("bad update req")}
			}
			return &Frame{Type: MsgUpdateR, ID: f.ID, Payload: AppendUpdateResult(nil, wantRes)}
		case MsgSnap:
			verify, err := DecodeSnapReq(f.Payload)
			if err != nil || !verify {
				return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte("bad snap req")}
			}
			return &Frame{Type: MsgSnapR, ID: f.ID, Payload: AppendSnapshotInfo(nil, wantInfo)}
		}
		return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte("unexpected type")}
	})
	c, err := Dial(addr, ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	res, err := c.Update(3, 9, false)
	if err != nil || res != wantRes {
		t.Fatalf("Update = (%+v, %v), want %+v", res, err, wantRes)
	}
	info, err := c.Snap(true)
	if err != nil || info != wantInfo {
		t.Fatalf("Snap = (%+v, %v), want %+v", info, err, wantInfo)
	}
}

func TestFrameTraceRoundTrip(t *testing.T) {
	want := Frame{
		Type:    MsgBatch,
		ID:      42,
		Trace:   TraceContext{ID: 0x0123456789abcdef, Flags: TraceFlagSampled},
		Payload: []byte{1, 2, 3, 4},
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, want, 0); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if buf.Len() != frameHeaderLen+frameBodyMin+len(want.Payload) {
		t.Fatalf("encoded %d bytes, want header + type + id + trace + payload", buf.Len())
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got.Type != want.Type || got.ID != want.ID || got.Trace != want.Trace || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}

func TestTraceContextFlags(t *testing.T) {
	tc := ResponseContext(9, true, 0xA)
	if !tc.Sampled() || tc.PathMask() != 0xA || tc.ID != 9 {
		t.Fatalf("ResponseContext = %+v (sampled=%v mask=%#x)", tc, tc.Sampled(), tc.PathMask())
	}
	tc = ResponseContext(9, false, 0x1)
	if tc.Sampled() {
		t.Fatal("unsampled response context reports sampled")
	}
	if tc.PathMask() != 0x1 {
		t.Fatalf("mask = %#x, want 0x1", tc.PathMask())
	}
	// Masks wider than four bits must not bleed into other flag bits.
	tc = ResponseContext(9, false, 0xFF)
	if tc.PathMask() != 0x3F {
		t.Fatalf("wide mask = %#x, want clamp to 0x3F", tc.PathMask())
	}
	if tc.Sampled() {
		t.Fatal("wide mask leaked into the sampled bit")
	}
}
