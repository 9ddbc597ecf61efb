// Package router is the fleet tier of the serving stack: a Router
// implements server.Backend over N dcserve workers reached through the
// binary wire protocol, so cmd/dcrouter can put the whole hardened
// connection layer of internal/server in front of a worker fleet without
// that package knowing fleets exist.
//
// The first (and current) sharding mode is replicated oracles: every
// worker holds the full oracle, so any query can go to any worker and a
// batch splits into contiguous chunks fanned across the healthy workers.
// Chunk answers are copied back into place by offset, which preserves the
// caller's index alignment — a routed batch is byte-identical to a
// single-process oracle.AnswerBatch (internal/check gates on exactly
// that).
//
// Fault handling: each worker (a shard) has a small pool of pipelined
// connections; a connection that dies is redialed by the health loop, a
// chunk that fails on one worker is retried on others, and only when a
// chunk exhausts every distinct healthy worker does the batch fail as a
// whole. The text batch path then answers "err ..." per line and the
// binary path answers MsgErr — callers never hang on a dead worker.
package router

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Defaults for the zero Options.
const (
	DefaultConnsPerWorker = 2
	DefaultRetries        = 2
	DefaultDialTimeout    = 5 * time.Second
	DefaultRequestTimeout = 30 * time.Second
	DefaultHealthInterval = 2 * time.Second
)

// Options configures a Router. The zero value (plus Workers) is usable.
type Options struct {
	// Workers is the address list of the fleet, one entry per worker.
	Workers []string
	// ConnsPerWorker sizes each worker's connection pool. Connections are
	// pipelined, so this bounds write-side concurrency, not in-flight
	// requests.
	ConnsPerWorker int
	// Retries is how many additional workers a failed chunk is tried on
	// before the batch fails (capped at the number of workers - 1).
	Retries int
	// DialTimeout, RequestTimeout configure the pooled wire clients.
	DialTimeout    time.Duration
	RequestTimeout time.Duration
	// HealthInterval is how often unhealthy shards are redialed and
	// healthy ones pinged. Negative disables the loop (tests, benchmarks —
	// redial then happens inline on use).
	HealthInterval time.Duration
	// Registry, when set, exposes router_* counters and per-shard
	// router_shard<i>_* counters plus healthy-worker gauges and the
	// router_worker_transitions{dir="up"|"down"} transition counters.
	Registry *obs.Registry
	// Log, when set, receives worker health transitions and fan-out
	// diagnostics as structured records under component=router. Nil
	// discards.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.ConnsPerWorker <= 0 {
		o.ConnsPerWorker = DefaultConnsPerWorker
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = DefaultRetries
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = DefaultHealthInterval
	}
	return o
}

// shard is one worker: its address, its connection pool, and its health.
type shard struct {
	idx  int
	addr string

	mu    sync.Mutex
	conns []*wire.Client // lazily dialed, round-robin
	next  int

	healthy  atomic.Bool
	counters *stats.Counters
}

// Router fans queries across a fleet of replicated workers. It implements
// server.Backend.
type Router struct {
	opts     Options
	shards   []*shard
	n        int // vertex count, agreed by every worker at startup
	maxBatch int // largest chunk one worker accepts

	rr       atomic.Uint64 // round-robin cursor for single-query dispatch
	counters *stats.Counters
	log      *slog.Logger

	// Worker health transitions observed by markHealth, split by
	// direction (the router_worker_transitions metric family).
	transUp   atomic.Int64
	transDown atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup

	closed atomic.Bool
}

// New dials every worker, verifies they agree on the serving shape, and
// starts the health loop. All workers must be reachable at startup — a
// fleet that begins degraded is a deployment error, not a fault to mask.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, errors.New("router: no workers")
	}
	r := &Router{
		opts: opts,
		log:  obs.Component(opts.Log, "router"),
		stop: make(chan struct{}),
		counters: stats.NewCounters(
			"dist", "batches", "chunks", "retries", "failures"),
	}
	for i, addr := range opts.Workers {
		sh := &shard{
			idx:  i,
			addr: addr,
			counters: stats.NewCounters(
				"requests", "queries", "errs", "retries", "redials"),
		}
		r.shards = append(r.shards, sh)
	}

	// First contact: every worker must answer Info and agree on N. These
	// connections are dialed before the fleet's MaxBatch is known, so
	// they close after Info; the pool dials clients sized for it on use.
	for _, sh := range r.shards {
		c, err := wire.Dial(sh.addr, r.clientOptions())
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("router: worker %d (%s): %w", sh.idx, sh.addr, err)
		}
		info, err := c.Info()
		c.Close()
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("router: worker %d (%s) info: %w", sh.idx, sh.addr, err)
		}
		if r.n == 0 {
			r.n = info.N
		} else if info.N != r.n {
			r.Close()
			return nil, fmt.Errorf("router: worker %d (%s) serves n=%d, fleet serves n=%d — not replicas",
				sh.idx, sh.addr, info.N, r.n)
		}
		if r.maxBatch == 0 || info.MaxBatch < r.maxBatch {
			r.maxBatch = info.MaxBatch
		}
		sh.healthy.Store(true)
	}

	if reg := opts.Registry; reg != nil {
		reg.AttachCounters("router", r.counters)
		for _, sh := range r.shards {
			reg.AttachCounters(fmt.Sprintf("router_shard%d", sh.idx), sh.counters)
		}
		reg.GaugeFunc("router_workers", "workers configured in the fleet",
			func() float64 { return float64(len(r.shards)) })
		reg.GaugeFunc("router_healthy_workers", "workers currently marked healthy",
			func() float64 { return float64(r.HealthyWorkers()) })
		reg.CounterFuncLabeled("router_worker_transitions",
			"Worker health transitions observed, by direction.",
			"dir", "up", r.transUp.Load)
		reg.CounterFuncLabeled("router_worker_transitions",
			"Worker health transitions observed, by direction.",
			"dir", "down", r.transDown.Load)
	}

	if opts.HealthInterval > 0 {
		r.wg.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// markHealth sets one worker's health state, and — only when the state
// actually flips — counts and logs the transition. Every health write in
// the package goes through here (except the initial all-healthy marking
// in New, which is not a transition), so the transition counters and the
// up/down log lines can never disagree with the gauge.
func (r *Router) markHealth(sh *shard, up bool, reason string) {
	if sh.healthy.Swap(up) == up {
		return
	}
	if up {
		r.transUp.Add(1)
		r.log.Info("worker up", "worker", sh.idx, "addr", sh.addr, "reason", reason)
	} else {
		r.transDown.Add(1)
		r.log.Warn("worker down", "worker", sh.idx, "addr", sh.addr, "reason", reason)
	}
}

// TransitionCounts returns the cumulative worker health transitions seen
// so far (up = unhealthy→healthy, down = healthy→unhealthy).
func (r *Router) TransitionCounts() (up, down int64) {
	return r.transUp.Load(), r.transDown.Load()
}

// N implements server.Backend.
func (r *Router) N() int { return r.n }

// MaxBatch is the largest chunk one worker accepts; the front server's
// own MaxBatch may be larger (the router splits).
func (r *Router) MaxBatch() int { return r.maxBatch }

// HealthyWorkers counts shards currently marked healthy.
func (r *Router) HealthyWorkers() int {
	n := 0
	for _, sh := range r.shards {
		if sh.healthy.Load() {
			n++
		}
	}
	return n
}

// Counter exposes a named router counter — dist, batches, chunks,
// retries, failures.
func (r *Router) Counter(name string) int64 { return r.counters.Get(name) }

// clientOptions configures a wire client to a worker. Its frame limit
// fits the answer to the largest chunk the router sends, r.maxBatch,
// which New settles before any pooled client is dialed.
func (r *Router) clientOptions() wire.ClientOptions {
	return wire.ClientOptions{
		DialTimeout:    r.opts.DialTimeout,
		RequestTimeout: r.opts.RequestTimeout,
		MaxFrameBytes:  wire.FrameLimit(r.maxBatch),
	}
}

// dial adds one pooled connection to sh, under sh.mu only for the pool
// append (the dial itself runs unlocked).
func (r *Router) dial(sh *shard) (*wire.Client, error) {
	c, err := wire.Dial(sh.addr, r.clientOptions())
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	sh.conns = append(sh.conns, c)
	sh.mu.Unlock()
	return c, nil
}

// conn returns a healthy pooled connection for sh, dialing up to the pool
// size and pruning dead connections as it goes. A nil return means the
// worker is unreachable right now; the caller marks it unhealthy.
func (r *Router) conn(sh *shard) *wire.Client {
	sh.mu.Lock()
	// Prune dead connections in place.
	live := sh.conns[:0]
	for _, c := range sh.conns {
		if c.Healthy() {
			live = append(live, c)
		} else {
			c.Close()
		}
	}
	sh.conns = live
	if len(sh.conns) > 0 {
		c := sh.conns[sh.next%len(sh.conns)]
		sh.next++
		needDial := len(sh.conns) < r.opts.ConnsPerWorker
		sh.mu.Unlock()
		if needDial {
			// Top the pool back up without holding the lock; failure is
			// fine, we already have a live connection.
			if _, err := r.dial(sh); err == nil {
				sh.counters.Add("redials", 1)
			}
		}
		return c
	}
	sh.mu.Unlock()
	c, err := r.dial(sh)
	if err != nil {
		return nil
	}
	sh.counters.Add("redials", 1)
	return c
}

// healthyShards returns the healthy shards rotated by the round-robin
// cursor, so consecutive calls spread first-choice load across the fleet.
func (r *Router) healthyShards() []*shard {
	start := int(r.rr.Add(1))
	out := make([]*shard, 0, len(r.shards))
	for i := 0; i < len(r.shards); i++ {
		sh := r.shards[(start+i)%len(r.shards)]
		if sh.healthy.Load() {
			out = append(out, sh)
		}
	}
	// Unhealthy shards go last instead of nowhere: if everything healthy
	// fails we would rather try a marked-down worker than give up.
	for i := 0; i < len(r.shards); i++ {
		sh := r.shards[(start+i)%len(r.shards)]
		if !sh.healthy.Load() {
			out = append(out, sh)
		}
	}
	return out
}

// tryShard runs fn against one worker, handling the
// connection/health bookkeeping. A false return means this worker failed
// and the caller should try another.
func (r *Router) tryShard(sh *shard, fn func(c *wire.Client) error) bool {
	c := r.conn(sh)
	if c == nil {
		r.markHealth(sh, false, "dial failed")
		sh.counters.Add("errs", 1)
		return false
	}
	err := fn(c)
	if err == nil {
		r.markHealth(sh, true, "request ok")
		return true
	}
	sh.counters.Add("errs", 1)
	var re *wire.RemoteError
	if errors.As(err, &re) {
		// The worker is alive and answered; the request itself is bad.
		// Retrying elsewhere would fail identically (replicas), so treat
		// the worker as healthy and give up on the request.
		return false
	}
	// Transport error: the worker (or this connection) is gone.
	r.markHealth(sh, false, "transport error")
	return false
}

// reqCtx is the wire trace context a traced request propagates to a
// worker: the trace id with the sampling bit, or the zero context (id 0,
// unsampled) for untraced requests.
func reqCtx(tr *obs.ReqTrace) wire.TraceContext {
	if tr == nil {
		return wire.TraceContext{}
	}
	return wire.SampledContext(tr.ID())
}

// Dist implements server.Backend: one query, tried on every worker in
// rotation until one answers.
func (r *Router) Dist(u, v int32) (oracle.Answer, error) {
	return r.DistTrace(u, v, nil)
}

// DistTrace implements server.TracedBackend: the answer is identical to
// Dist, and a non-nil trace gains one hop per worker attempt (send
// through merge of the wire round trip), retry events, and the worker's
// resolution-path bits carried back in the response trace flags.
func (r *Router) DistTrace(u, v int32, tr *obs.ReqTrace) (oracle.Answer, error) {
	r.counters.Add("dist", 1)
	var ans oracle.Answer
	var lastErr error
	for _, sh := range r.healthyShards() {
		t0 := time.Now()
		ok := r.tryShard(sh, func(c *wire.Client) error {
			a, rtc, err := c.DistTraced(u, v, reqCtx(tr))
			if err != nil {
				lastErr = err
				return err
			}
			tr.OrPath(rtc.PathMask())
			ans = a
			return nil
		})
		if ok {
			tr.Hop(fmt.Sprintf("shard%d", sh.idx), t0, "q=1")
			sh.counters.Add("requests", 1)
			sh.counters.Add("queries", 1)
			return ans, nil
		}
		var re *wire.RemoteError
		if errors.As(lastErr, &re) {
			// Deterministic request error (e.g. out of range): replicas
			// agree, stop retrying and surface the worker's answer.
			return oracle.Answer{}, errors.New(re.Msg)
		}
		tr.Event("retry", fmt.Sprintf("worker=%d", sh.idx))
		r.counters.Add("retries", 1)
	}
	r.counters.Add("failures", 1)
	if lastErr == nil {
		lastErr = errors.New("router: no reachable workers")
	}
	return oracle.Answer{}, fmt.Errorf("router: dist failed on all workers: %w", lastErr)
}

// Route implements server.Backend. Paths are worker-local state the wire
// protocol does not carry; the text protocol answers this error line.
func (r *Router) Route(u, v int32) (routing.Path, oracle.Answer, error) {
	return nil, oracle.Answer{}, errors.New("router: route is not supported through the fleet tier (ask a worker directly)")
}

// chunk is one contiguous slice of a batch assigned to one worker.
type chunk struct {
	lo, hi int // qs[lo:hi]
}

// AnswerBatch implements server.Backend: the batch splits into contiguous
// chunks (one per healthy worker, each within every worker's batch
// limit), the chunks fan out concurrently, and each chunk's answers are
// copied to its offset — so the merged result preserves request order
// exactly. A chunk that fails on its worker retries on the others; if any
// chunk exhausts the fleet the whole batch errors.
func (r *Router) AnswerBatch(qs []oracle.Query) ([]oracle.Answer, error) {
	return r.AnswerBatchTrace(qs, nil)
}

// AnswerBatchTrace implements server.TracedBackend: answers are
// byte-identical to AnswerBatch (internal/check gates on that), and a
// non-nil trace gains a "split" hop (chunking decision), one concurrent
// "shard<i>" hop per chunk attempt covering the wire round trip, retry
// events, and a "merge" hop for the error fold after the fan-in.
func (r *Router) AnswerBatchTrace(qs []oracle.Query, tr *obs.ReqTrace) ([]oracle.Answer, error) {
	if r.closed.Load() {
		return nil, errors.New("router: closed")
	}
	r.counters.Add("batches", 1)
	out := make([]oracle.Answer, len(qs))
	if len(qs) == 0 {
		return out, nil
	}

	t0 := time.Now()
	shards := r.healthyShards()
	if len(shards) == 0 {
		r.counters.Add("failures", 1)
		return nil, errors.New("router: no workers")
	}
	ways := len(shards)
	per := (len(qs) + ways - 1) / ways
	if per > r.maxBatch {
		per = r.maxBatch
	}
	var chunks []chunk
	for lo := 0; lo < len(qs); lo += per {
		hi := lo + per
		if hi > len(qs) {
			hi = len(qs)
		}
		chunks = append(chunks, chunk{lo, hi})
	}
	r.counters.Add("chunks", int64(len(chunks)))
	if tr != nil {
		tr.Hop("split", t0, fmt.Sprintf("n=%d chunks=%d workers=%d", len(qs), len(chunks), len(shards)))
	}

	var wg sync.WaitGroup
	errc := make(chan error, len(chunks))
	for ci, ck := range chunks {
		wg.Add(1)
		go func(ci int, ck chunk) {
			defer wg.Done()
			errc <- r.answerChunk(qs[ck.lo:ck.hi], out[ck.lo:ck.hi], shards, ci, tr)
		}(ci, ck)
	}
	wg.Wait()
	tm := time.Now()
	close(errc)
	for err := range errc {
		if err != nil {
			r.counters.Add("failures", 1)
			return nil, err
		}
	}
	if tr != nil {
		tr.Hop("merge", tm, fmt.Sprintf("chunks=%d", len(chunks)))
	}
	return out, nil
}

// answerChunk answers qs into out (same length), starting at shard
// ci%len(shards) and retrying on up to Retries further distinct workers.
// Chunk answers land directly in out's slice window, so the merge is the
// copy each worker response already performs.
func (r *Router) answerChunk(qs []oracle.Query, out []oracle.Answer, shards []*shard, ci int, tr *obs.ReqTrace) error {
	tries := r.opts.Retries + 1
	if tries > len(shards) {
		tries = len(shards)
	}
	var lastErr error
	for t := 0; t < tries; t++ {
		sh := shards[(ci+t)%len(shards)]
		t0 := time.Now()
		ok := r.tryShard(sh, func(c *wire.Client) error {
			as, rtc, err := c.BatchTraced(qs, reqCtx(tr))
			if err != nil {
				lastErr = err
				return err
			}
			tr.OrPath(rtc.PathMask())
			copy(out, as)
			return nil
		})
		if ok {
			tr.Hop(fmt.Sprintf("shard%d", sh.idx), t0, fmt.Sprintf("chunk=%d q=%d try=%d", ci, len(qs), t))
			sh.counters.Add("requests", 1)
			sh.counters.Add("queries", int64(len(qs)))
			return nil
		}
		var re *wire.RemoteError
		if errors.As(lastErr, &re) {
			// Replicas answer deterministic request errors identically;
			// retrying elsewhere only repeats the refusal.
			break
		}
		if t+1 < tries {
			tr.Event("retry", fmt.Sprintf("chunk=%d worker=%d", ci, sh.idx))
			sh.counters.Add("retries", 1)
			r.counters.Add("retries", 1)
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no reachable workers")
	}
	return fmt.Errorf("router: chunk of %d queries failed after %d workers: %w", len(qs), tries, lastErr)
}

// StatsLine implements server.Backend: the router counters and every
// shard's counters, each block rendered from one snapshot.
func (r *Router) StatsLine() string {
	var b []byte
	b = append(b, "router"...)
	for _, cv := range r.counters.Snapshot() {
		b = append(b, ' ')
		b = append(b, cv.Name...)
		b = append(b, '=')
		b = fmt.Appendf(b, "%d", cv.Value)
	}
	b = fmt.Appendf(b, " workers=%d healthy=%d", len(r.shards), r.HealthyWorkers())
	for _, sh := range r.shards {
		b = fmt.Appendf(b, " | shard%d", sh.idx)
		if !sh.healthy.Load() {
			b = append(b, "(down)"...)
		}
		for _, cv := range sh.counters.Snapshot() {
			b = append(b, ' ')
			b = append(b, cv.Name...)
			b = append(b, '=')
			b = fmt.Appendf(b, "%d", cv.Value)
		}
	}
	return string(b)
}

// healthLoop periodically pings healthy shards and redials unhealthy
// ones, so a worker that restarts rejoins the rotation without traffic
// having to trip over it first. Transition logging and counting happen
// inside markHealth (via tryShard), so a flip detected by the loop and a
// flip detected by live traffic are recorded identically.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		for _, sh := range r.shards {
			r.tryShard(sh, func(c *wire.Client) error {
				_, err := c.Info()
				return err
			})
		}
	}
}

// Close stops the health loop and closes every pooled connection.
func (r *Router) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	close(r.stop)
	r.wg.Wait()
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, c := range sh.conns {
			c.Close()
		}
		sh.conns = nil
		sh.mu.Unlock()
	}
	return nil
}
