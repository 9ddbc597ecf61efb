package check

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/wire"
)

// fuzzServer builds one small oracle + server shared across fuzz
// iterations (the server is safe for concurrent sessions; construction is
// the expensive part).
var fuzzServer = sync.OnceValue(func() *server.Server {
	g := gen.Cycle(9)
	o, err := oracle.NewFromGraphs(g, g, 3, oracle.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	return server.New(o, server.Config{MaxBatch: 64, MaxLineBytes: 512})
})

// FuzzServerProtocol throws arbitrary bytes at the dcserve line protocol
// via ServeStream. The session must never panic, every response line must
// carry a known protocol prefix, and the graph.Unreachable sentinel (-1)
// must never leak into a distance answer — disconnected pairs speak the
// protocol word "unreachable". Inputs whose first byte is the binary
// protocol's magic byte open a binary session instead; for those the line
// assertions do not apply (the output is frames, not lines) and the
// property checked is simply no panic and no hang.
func FuzzServerProtocol(f *testing.F) {
	f.Add("dist 0 1\n")
	f.Add("route 0 3\nstats\nquit\n")
	f.Add("batch 2\ndist 0 1\ndist 1 2\n")
	f.Add("batch 3\ndist 0 1\n") // truncated batch
	f.Add("batch 0\nbatch -7\nbatch 99999999999999999999\nbatch x\n")
	f.Add("dist -1 5\ndist 4294967296 1\ndist 0\n")
	f.Add("nonsense\n\n  \n\x00\xff\n")
	f.Add("dist 0 1") // no trailing newline
	f.Add(strings.Repeat("a", 600) + "\ndist 1 2\n")
	f.Add("\xd5CP2\x00\x02\x00\x02")     // valid binary hello, no frames
	f.Add("\xd5CP2\x00\x02")             // truncated hello
	f.Add("\xd5garbage after the magic") // binary-classified, corrupt hello
	f.Fuzz(func(t *testing.T, input string) {
		srv := fuzzServer()
		var out bytes.Buffer
		srv.ServeStream(context.Background(), strings.NewReader(input), &out)
		if len(input) > 0 && input[0] == wire.MagicByte {
			// Binary session: output is frames (or nothing). Returning
			// without panicking is the property.
			return
		}
		sc := bufio.NewScanner(&out)
		sc.Buffer(make([]byte, 0, 4096), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				t.Fatalf("empty response line for input %q", input)
			}
			switch {
			case strings.HasPrefix(line, "dist "),
				strings.HasPrefix(line, "route "),
				strings.HasPrefix(line, "stats "),
				strings.HasPrefix(line, "err "):
			default:
				t.Fatalf("response %q has no protocol prefix (input %q)", line, input)
			}
			if strings.Contains(line, "= -1") {
				t.Fatalf("Unreachable sentinel leaked to the wire: %q (input %q)", line, input)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanning server output: %v", err)
		}
	})
}

// FuzzWireFrame throws arbitrary bytes at the binary protocol's frame and
// payload decoders. Truncated frames, oversized length prefixes, bad
// magic, and lying batch counts must all come back as errors — never a
// panic, and never an allocation driven by an attacker-chosen length (the
// 1 KiB frame limit here means any decoded payload is at most 1 KiB,
// whatever the length prefix claims). A frame that does decode must
// re-encode and re-decode to itself. The seeds keep the retired v2 shapes
// — a frame with no trace context, hellos offering only versions 2..3 —
// and the setup checks that both are refused.
func FuzzWireFrame(f *testing.F) {
	const limit = 1 << 10
	v2Frame := []byte{0x00, 0x00, 0x00, 0x09, 0x01, 0, 0, 0, 0, 0, 0, 0, 1} // type + id, no trace context
	v2Hellos := []string{"\xd5CP2\x00\x02\x00\x02", "\xd5CP2\x00\x02\x00\x03"}
	if _, err := wire.ReadFrame(bytes.NewReader(v2Frame), limit); !errors.Is(err, wire.ErrShortFrame) {
		f.Fatalf("v2-shaped frame: error = %v, want ErrShortFrame", err)
	}
	for _, h := range v2Hellos {
		cMin, cMax, err := wire.ParseHello([]byte(h))
		if _, ok := wire.Negotiate(cMin, cMax, wire.VersionMin, wire.VersionMax); err != nil || ok {
			f.Fatalf("v2-era hello %q: parse error %v, negotiated %v; want a clean refusal", h, err, ok)
		}
	}

	f.Add([]byte{})
	f.Add(v2Frame)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})       // 4 GiB length prefix
	f.Add([]byte{0x00, 0x00, 0x00, 0x03})       // body below the fixed header
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x02}) // declared 256, carries 1
	f.Add([]byte(v2Hellos[0]))                  // a hello is not a frame
	f.Add([]byte(v2Hellos[1]))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: 0x02, ID: 7,
		Payload: wire.AppendQueries(nil, []oracle.Query{{U: 1, V: 2}, {U: -1, V: 1 << 30}})}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Type: 0x01, ID: 9,
		Trace:   wire.SampledContext(0xdeadbeef),
		Payload: wire.AppendQuery(nil, oracle.Query{U: 3, V: 4})}))
	f.Fuzz(func(t *testing.T, input []byte) {
		fr, err := wire.ReadFrame(bytes.NewReader(input), limit)
		if err == nil {
			if len(fr.Payload) > limit {
				t.Fatalf("decoded payload of %d bytes exceeds the %d limit", len(fr.Payload), limit)
			}
			again, rerr := wire.ReadFrame(bytes.NewReader(wire.AppendFrame(nil, fr)), limit)
			if rerr != nil {
				t.Fatalf("re-decoding a decoded frame failed: %v", rerr)
			}
			if again.Type != fr.Type || again.ID != fr.ID || again.Trace != fr.Trace || !bytes.Equal(again.Payload, fr.Payload) {
				t.Fatalf("frame round trip changed: %+v -> %+v", fr, again)
			}
			// Payload decoders must be total on arbitrary payloads too.
			wire.DecodeQueries(fr.Payload)
			wire.DecodeAnswers(fr.Payload)
			wire.DecodeQuery(fr.Payload)
			wire.DecodeAnswer(fr.Payload)
			wire.DecodeInfo(fr.Payload)
		}
		wire.ParseHello(input)
		wire.ParseHelloReply(input)
	})
}

// FuzzGraphioRead throws arbitrary bytes at the edge-list parser. Since
// the parser validates before touching the builder it must never panic
// (no recover here — a panic is a finding); every accepted graph must
// pass the structural invariants and round-trip through WriteEdgeList
// unchanged.
func FuzzGraphioRead(f *testing.F) {
	f.Add("n 4\n0 1\n2 3\n")
	f.Add("# comment\nn 2\n0 1\n")
	f.Add("n 0\n")
	f.Add("n 3\n0 1\n1 2\n0 2\n")
	f.Add("garbage")
	f.Add("n 3\n0 1\n0 1\n")     // duplicate edge
	f.Add("n 3\n1 1\n")          // self-loop
	f.Add("n 3\n-1 2\n")         // negative vertex
	f.Add("n 3\n0 7\n")          // out of range
	f.Add("n 2\n4294967296 1\n") // would truncate to 0 under int32 casting
	f.Add("n 99999999999\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := graphio.ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if ierr := GraphInvariants(g); ierr != nil {
			t.Fatalf("accepted graph violates invariants: %v (input %q)", ierr, input)
		}
		var buf bytes.Buffer
		if werr := graphio.WriteEdgeList(&buf, g); werr != nil {
			t.Fatalf("write failed on accepted graph: %v", werr)
		}
		again, rerr := graphio.ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("round trip re-parse failed: %v", rerr)
		}
		if again.N() != g.N() || again.M() != g.M() {
			t.Fatalf("round trip changed shape: n %d->%d, m %d->%d", g.N(), again.N(), g.M(), again.M())
		}
		for i, e := range again.Edges() {
			if e != g.Edges()[i] {
				t.Fatalf("round trip changed edge %d: %v -> %v", i, g.Edges()[i], e)
			}
		}
	})
}
