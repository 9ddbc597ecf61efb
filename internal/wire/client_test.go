package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/oracle"
)

// stubServer accepts one binary connection and answers frames with fn
// (nil return = drop the request silently). Responses go out as fn
// returns, which lets tests answer out of order.
func stubServer(t *testing.T, fn func(f Frame) *Frame) (addr string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello := make([]byte, HelloLen)
		if _, err := io.ReadFull(conn, hello); err != nil {
			return
		}
		cMin, cMax, err := ParseHello(hello)
		if err != nil {
			return
		}
		v, _ := Negotiate(cMin, cMax, VersionMin, VersionMax)
		conn.Write(AppendHelloReply(nil, v))
		if v == 0 {
			return
		}
		br := bufio.NewReader(conn)
		var wmu sync.Mutex
		for {
			f, err := ReadFrame(br, DefaultMaxFrameBytes)
			if err != nil {
				return
			}
			go func(f Frame) {
				if resp := fn(f); resp != nil {
					wmu.Lock()
					defer wmu.Unlock()
					WriteFrame(conn, *resp, DefaultMaxFrameBytes)
				}
			}(f)
		}
	}()
	return l.Addr().String()
}

func TestClientPipelinesOutOfOrder(t *testing.T) {
	// Hold the first dist response until the second has gone out; the
	// client must still resolve both calls correctly by id.
	release := make(chan struct{})
	var once sync.Once
	addr := stubServer(t, func(f Frame) *Frame {
		q, err := DecodeQuery(f.Payload)
		if err != nil {
			return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte(err.Error())}
		}
		if q.U == 0 { // the slow request waits for the fast one
			<-release
		} else {
			once.Do(func() { close(release) })
		}
		return &Frame{Type: MsgDistR, ID: f.ID,
			Payload: AppendAnswer(nil, oracle.Answer{U: q.U, V: q.V, Dist: q.U + q.V, Exact: true})}
	})
	c, err := Dial(addr, ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	type result struct {
		a   oracle.Answer
		err error
	}
	slow := make(chan result, 1)
	go func() {
		a, err := c.Dist(0, 5)
		slow <- result{a, err}
	}()
	// Give the slow request time to be parked server-side, then overtake.
	time.Sleep(20 * time.Millisecond)
	a, err := c.Dist(3, 4)
	if err != nil || a.Dist != 7 {
		t.Fatalf("fast Dist = (%+v, %v), want dist 7", a, err)
	}
	r := <-slow
	if r.err != nil || r.a.Dist != 5 {
		t.Fatalf("slow Dist = (%+v, %v), want dist 5", r.a, r.err)
	}
}

func TestClientConcurrentCallers(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame {
		q, err := DecodeQuery(f.Payload)
		if err != nil {
			return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte(err.Error())}
		}
		return &Frame{Type: MsgDistR, ID: f.ID,
			Payload: AppendAnswer(nil, oracle.Answer{U: q.U, V: q.V, Dist: q.U ^ q.V, Exact: true})}
	})
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				u, v := int32(g), int32(i)
				a, err := c.Dist(u, v)
				if err != nil {
					t.Errorf("Dist(%d,%d): %v", u, v, err)
					return
				}
				if a.Dist != u^v {
					t.Errorf("Dist(%d,%d) = %d, want %d", u, v, a.Dist, u^v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestClientRemoteError(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame {
		return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte("nope")}
	})
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	_, err = c.Stats()
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "nope" {
		t.Fatalf("err = %v, want RemoteError{nope}", err)
	}
	if !c.Healthy() {
		t.Fatal("a remote error must not kill the connection")
	}
}

func TestClientRequestTimeoutKillsConnection(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame { return nil }) // black hole
	c, err := Dial(addr, ClientOptions{RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Stats(); err == nil {
		t.Fatal("black-holed request returned nil error")
	}
	if c.Healthy() {
		t.Fatal("client still healthy after a request timeout")
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("dead client accepted another request")
	}
}

// TestClientStopsRequestTimers: an answered request leaves no live
// timer. Under the module's go 1.22 timer rules a timer that is never
// stopped stays reachable until it fires, about 270 bytes per request
// held for the whole RequestTimeout (30 s by default).
func TestClientStopsRequestTimers(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame {
		return &Frame{Type: MsgInfoR, ID: f.ID, Payload: AppendInfo(nil, Info{N: 1, MaxBatch: 1})}
	})
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Info(); err != nil { // warm the pending map and buffers
		t.Fatalf("Info: %v", err)
	}

	const calls = 4000
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i := 0; i < calls; i++ {
		if _, err := c.Info(); err != nil {
			t.Fatalf("Info %d: %v", i, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if grew := int64(ms.HeapAlloc) - int64(before); grew > calls*64 {
		t.Fatalf("live heap grew %d bytes over %d answered requests (%d per request): request timers left running",
			grew, calls, grew/calls)
	}
}

func TestClientServerDisconnectFailsPending(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame {
		// Never answer; the test kills the client-side conn instead.
		return nil
	})
	c, err := Dial(addr, ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Stats()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.conn.Close() // simulate the peer dropping mid-request
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending request resolved nil after disconnect")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending request hung after disconnect")
	}
}
