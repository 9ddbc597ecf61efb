package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/oracle"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/spanner"
	"repro/internal/wire"
)

// Replay sizes: fixed prefixes of each workload's streams.
const (
	replayReads   = 8192  // point_zipf queries through oracle.Dist and the in-process server
	replayFrames  = 64    // routed_batch frames through the in-process router
	replayCodec   = 200   // repetitions of the 512-query frame codec
	codecDistReps = 10000 // repetitions of the single-query frame codec
	replayToggles = 12    // churn_rw toggles through the in-process engines
	replayIdle    = 4096  // churn_rw reads on the idle dynamic engine
	graphReads    = 3     // graphio.ReadEdgeList repetitions
)

// spanBackend serves an oracle to an in-process server and records each
// resolution as a child of the client call that is in flight (the replay
// keeps one in flight).
type spanBackend struct {
	o      *oracle.Oracle
	log    *spanLog
	parent atomic.Int32
}

func (b *spanBackend) N() int { return b.o.N() }

func (b *spanBackend) Dist(u, v int32) (oracle.Answer, error) {
	i := b.log.begin("oracle.Dist(server)", b.parent.Load(), 0)
	a, err := b.o.Dist(u, v)
	b.log.end(i)
	return a, err
}

func (b *spanBackend) Route(u, v int32) (routing.Path, oracle.Answer, error) { return b.o.Route(u, v) }

func (b *spanBackend) AnswerBatch(qs []oracle.Query) ([]oracle.Answer, error) {
	return b.o.AnswerBatch(qs), nil
}

func (b *spanBackend) StatsLine() string { return b.o.Stats().String() }

// replayInputs are the seed's inputs the in-process replays run on: every
// layer is replayed on the input of the workload that loads it, whichever
// workload's traced run this is.
type replayInputs struct {
	seed      uint64
	inputPath string       // this workload's edge list
	static    *graph.Graph // point_zipf / routed_batch input
	dyn       *graph.Graph // churn_rw input
}

// runReplays times the layers' public functions in-process, recording
// one span per call in log, and returns the figures that are not spans.
// Nothing else of the benchmark runs while they do.
func runReplays(in replayInputs, log *spanLog) (extra map[string]float64, err error) {
	extra = map[string]float64{}
	sp := spannerSeed(in.seed)
	root := func(name string) int32 { return log.begin(name, -1, 0) }

	r := root("replay.graphio")
	for i := 0; i < graphReads; i++ {
		f, err := os.Open(in.inputPath)
		if err != nil {
			return nil, err
		}
		j := log.begin("graphio.ReadEdgeList", r, uint64(i))
		_, err = graphio.ReadEdgeList(f)
		log.end(j)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	log.end(r)

	// Static tier on the point_zipf / routed_batch input.
	r = root("replay.static")
	j := log.begin("core.Build", r, 0)
	dc, err := staticSpanner(in.static, sp)
	log.end(j)
	if err != nil {
		return nil, err
	}
	// newOracle parents its span under the replay section open at call time.
	newOracle := func(name string, opts oracle.Options) (*oracle.Oracle, error) {
		j := log.begin(name, r, 0)
		defer log.end(j)
		return oracle.New(dc, opts)
	}
	direct, err := newOracle("oracle.New/landmark-bibfs", oracle.Options{Backend: oracle.BackendLandmarkBiBFS})
	if err != nil {
		return nil, err
	}
	served, err := newOracle("oracle.New/landmark-bibfs", oracle.Options{Backend: oracle.BackendLandmarkBiBFS})
	if err != nil {
		return nil, err
	}
	reads := zipfStreams(in.static.N(), in.seed, 1, replayReads)[0]
	for i, q := range reads {
		j := log.begin("oracle.Dist", r, uint64(i))
		_, err := direct.Dist(q.U, q.V)
		log.end(j)
		if err != nil {
			return nil, err
		}
	}
	if err := replayServer(served, reads, log); err != nil {
		return nil, err
	}
	codecDist(log, r)
	log.end(r)

	// Fleet tier: replicas, router, codec and the batch path.
	r = root("replay.fleet")
	var replicas []*oracle.Oracle
	fl := log.begin("router.StartLocalFleet", r, 0)
	fleet, err := router.StartLocalFleet(fleetWorkers, func(i int) (*oracle.Oracle, error) {
		j := log.begin("oracle.New/exact-cached", fl, uint64(i))
		defer log.end(j)
		o, err := oracle.New(dc, oracle.Options{Backend: oracle.BackendExactCached})
		replicas = append(replicas, o)
		return o, err
	}, server.Config{})
	log.end(fl)
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	for _, o := range replicas {
		extra["fleet_backend_bytes"] += float64(o.BackendStats().MemoryBytes)
	}
	rt, err := router.New(router.Options{Workers: fleet.Addrs(), HealthInterval: -1})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	frames := uniformStreams(in.static.N(), in.seed, "batch-stream", 1, replayFrames*batchSize)[0]
	for k := 0; k < replayFrames; k++ {
		qs := frames[k*batchSize : (k+1)*batchSize]
		j := log.begin("router.AnswerBatch", r, uint64(k))
		_, err := rt.AnswerBatch(qs)
		log.end(j)
		if err != nil {
			return nil, err
		}
	}
	extra["router_batches"] = float64(rt.Counter("batches"))
	extra["router_chunks"] = float64(rt.Counter("chunks"))
	extra["router_retries"] = float64(rt.Counter("retries"))
	extra["router_failures"] = float64(rt.Counter("failures"))
	wc, err := wire.Dial(fleet.Addrs()[0], wire.ClientOptions{})
	if err != nil {
		return nil, err
	}
	half := batchSize / fleetWorkers
	for k := 0; k < replayFrames; k++ {
		j := log.begin("wire.Client.Batch(chunk)", r, uint64(k))
		_, err := wc.Batch(frames[k*batchSize : k*batchSize+half])
		log.end(j)
		if err != nil {
			wc.Close()
			return nil, err
		}
	}
	wc.Close()
	answers := replicas[0].AnswerBatch(frames[:batchSize])
	extra["wire_frame_bytes"] = float64(codecBatch(log, r, frames[:batchSize], answers))

	quiet, err := newOracle("oracle.New/exact-cached(nosample)",
		oracle.Options{Backend: oracle.BackendExactCached, SampleEvery: -1})
	if err != nil {
		return nil, err
	}
	for k := 0; k < len(frames)/half; k++ {
		qs := frames[k*half : (k+1)*half]
		j := log.begin("oracle.AnswerBatch", r, uint64(k))
		replicas[0].AnswerBatch(qs)
		log.end(j)
		j = log.begin("oracle.AnswerBatch(nosample)", r, uint64(k))
		quiet.AnswerBatch(qs)
		log.end(j)
	}
	for i := 0; i < len(frames); i += 64 {
		q := frames[i]
		j := log.begin("graph.Dist(G)", r, uint64(i))
		in.static.Dist(q.U, q.V)
		log.end(j)
	}
	log.end(r)

	// Update path on the churn_rw input.
	r = root("replay.dynamic")
	j = log.begin("oracle.NewDynamic", r, 0)
	d, err := oracle.NewDynamic(in.dyn, oracle.DynamicOptions{
		Spanner: spanner.IncrementalOptions{Seed: sp},
		Oracle:  oracle.Options{Backend: oracle.BackendLandmarkBiBFS},
	})
	log.end(j)
	if err != nil {
		return nil, err
	}
	for i, q := range uniformStreams(in.dyn.N(), in.seed, "churn-read", 1, replayIdle)[0] {
		j := log.begin("oracle.Dynamic.Dist", r, uint64(i))
		_, err := d.Dist(q.U, q.V)
		log.end(j)
		if err != nil {
			return nil, err
		}
	}
	j = log.begin("spanner.NewIncremental", r, 0)
	inc := spanner.NewIncremental(in.dyn, spanner.IncrementalOptions{Seed: sp})
	log.end(j)
	t := newEdgeTracker(in.dyn)
	for i, e := range togglePairs(in.dyn, in.seed, togglePairsN)[:replayToggles] {
		add := !t.has(e)
		j := log.begin("oracle.Dynamic.Update", r, uint64(i))
		res, err := d.Update(e.U, e.V, add)
		log.end(j)
		if err != nil || !res.Applied {
			return nil, fmt.Errorf("replay update (%d,%d): applied=%v err=%v", e.U, e.V, res.Applied, err)
		}
		t.toggle(e, add)
		j = log.begin("spanner.Incremental.Insert/Delete", r, uint64(i))
		if add {
			_, _, err = inc.Insert(e.U, e.V)
		} else {
			_, _, err = inc.Delete(e.U, e.V)
		}
		log.end(j)
		if err != nil {
			return nil, err
		}
		j = log.begin("spanner.Incremental.Spanner", r, uint64(i))
		inc.Spanner()
		log.end(j)
	}
	log.end(r)
	return extra, nil
}

// replayServer sends reads one at a time through an in-process server
// over loopback; each client call's span holds the server-side
// resolution as a child.
func replayServer(o *oracle.Oracle, reads []oracle.Query, log *spanLog) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sb := &spanBackend{o: o, log: log}
	srv := server.NewBackend(sb, server.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	defer func() {
		cancel()
		<-done
	}()
	c, err := wire.Dial(l.Addr().String(), wire.ClientOptions{})
	if err != nil {
		return err
	}
	defer c.Close()
	for i, q := range reads {
		j := log.begin("wire.Client.Dist(inproc)", -1, uint64(i))
		sb.parent.Store(j)
		_, err := c.Dist(q.U, q.V)
		log.end(j)
		if err != nil {
			return err
		}
	}
	return nil
}

// codecDist times both ends' codec work for one dist request and answer:
// the client encodes the request and decodes the answer, the server the
// reverse.
func codecDist(log *spanLog, parent int32) {
	q := oracle.Query{U: 17, V: 4001}
	a := oracle.Answer{U: 17, V: 4001, Dist: 2, Bound: 2, Exact: true}
	var buf []byte
	j := log.begin("wire.codec(dist)", parent, codecDistReps)
	for i := 0; i < codecDistReps; i++ {
		buf = wire.AppendFrameV(buf[:0], wire.Frame{Type: wire.MsgDist, ID: uint64(i), Payload: wire.AppendQuery(nil, q)}, wire.VersionMax)
		if _, err := wire.DecodeQuery(buf[len(buf)-8:]); err != nil {
			panic(err)
		}
		buf = wire.AppendFrameV(buf[:0], wire.Frame{Type: wire.MsgDistR, ID: uint64(i), Payload: wire.AppendAnswer(nil, a)}, wire.VersionMax)
		if _, err := wire.DecodeAnswer(wire.AppendAnswer(nil, a)); err != nil {
			panic(err)
		}
	}
	log.end(j)
}

// codecBatch times encoding one 512-query batch frame and decoding its
// answers, and returns the request plus response frame bytes.
func codecBatch(log *spanLog, parent int32, qs []oracle.Query, as []oracle.Answer) int {
	var req []byte
	j := log.begin("wire.AppendFrame+AppendQueries", parent, 0)
	for i := 0; i < replayCodec; i++ {
		req = wire.AppendFrameV(req[:0], wire.Frame{Type: wire.MsgBatch, ID: uint64(i),
			Payload: wire.AppendQueries(make([]byte, 0, 4+8*len(qs)), qs)}, wire.VersionMax)
	}
	log.end(j)
	payload := wire.AppendAnswers(nil, as)
	resp := wire.AppendFrameV(nil, wire.Frame{Type: wire.MsgBatchR, ID: 1, Payload: payload}, wire.VersionMax)
	j = log.begin("wire.DecodeAnswers", parent, 0)
	for i := 0; i < replayCodec; i++ {
		if _, err := wire.DecodeAnswers(payload); err != nil {
			panic(err)
		}
	}
	log.end(j)
	return len(req) + len(resp)
}
