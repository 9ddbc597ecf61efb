package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/wire"
)

// conn is one load connection. After a transport error the first worker
// to notice redials it; a refused redial leaves it empty until the next
// attempt.
type conn struct {
	addr string
	mu   sync.Mutex
	cur  atomic.Pointer[wire.Client]
}

func dialConn(addr string) (*conn, error) {
	c, err := wire.Dial(addr, wire.ClientOptions{})
	if err != nil {
		return nil, err
	}
	cn := &conn{addr: addr}
	cn.cur.Store(c)
	return cn, nil
}

// repair replaces bad (the client a call just failed on) unless another
// worker already has.
func (cn *conn) repair(bad *wire.Client) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.cur.Load() != bad || (bad != nil && bad.Healthy()) {
		return
	}
	if bad != nil {
		bad.Close()
	}
	c, err := wire.Dial(cn.addr, wire.ClientOptions{})
	if err != nil {
		cn.cur.Store(nil)
		time.Sleep(10 * time.Millisecond) // a refused dial must not spin
		return
	}
	cn.cur.Store(c)
}

func (cn *conn) close() {
	if c := cn.cur.Load(); c != nil {
		c.Close()
	}
}

var errNoConn = errors.New("no connection")

// worker is one closed-loop load goroutine: it issues op(c, 0), op(c, 1),
// ... back to back, first a fixed number in the warm-up, then until the
// window's deadline. Several workers sharing a conn keep that many
// requests in flight on it.
type worker struct {
	conn   *conn
	op     func(c *wire.Client, i int) (queries int, err error)
	update bool   // counts as an update rather than a read
	name   string // span name of one op
	warmup int    // ops in the warm-up

	next              int // index of the next op: streams continue from the warm-up into the window
	attempted, failed int64
	firstErr          error
	// Window figures.
	queries int64
	lat     []int64  // ns, preallocated
	log     *spanLog // non-nil in the traced window
}

// do issues the next op; ok is false if it failed.
func (w *worker) do() (t0, t1 time.Time, queries int, ok bool) {
	i := w.next
	w.next++
	t0 = time.Now()
	c := w.conn.cur.Load()
	q, err := 0, errNoConn
	if c != nil {
		q, err = w.op(c, i)
	}
	t1 = time.Now()
	w.attempted++
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
		w.conn.repair(c)
		return t0, t1, 0, false
	}
	return t0, t1, q, true
}

// measure issues ops until the deadline and records every one that
// succeeded. An op started before the deadline counts even if it ends
// after it.
func (w *worker) measure(deadline time.Time) {
	for time.Now().Before(deadline) {
		t0, t1, q, ok := w.do()
		if !ok {
			continue
		}
		w.queries += int64(q)
		w.lat = append(w.lat, int64(t1.Sub(t0)))
		if w.log != nil {
			w.log.add(w.name, t0, t1, -1, uint64(w.next-1))
		}
	}
}

// warmUp runs every worker's warm-up ops and returns when all are done.
// A fixed count rather than a fixed time leaves the server in the same
// state after it on a fast host and a slow one (README.md, Measurement rules).
func warmUp(ws []*worker) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for k := 0; k < w.warmup; k++ {
				w.do()
			}
		}(w)
	}
	wg.Wait()
}

// windowResult is what one measurement window produced.
type windowResult struct {
	dur      time.Duration   // the segments' time, each until its last op returned
	cpu      time.Duration   // serving-process user+sys CPU over the segments
	ref      []time.Duration // the reference work's wall time after each segment
	refCPU   []time.Duration // and the CPU time it used
	steal    float64         // machine CPU-steal share over the window
	queries  int64           // distance queries answered in the window
	readLat  []int64         // ns, ascending
	updLat   []int64         // ns, ascending
	readAtt  int64           // attempted and failed over warm-up and window
	readFail int64
	updAtt   int64
	updFail  int64
	firstErr error
	spans    []span
	epoch    time.Time // of the spans
}

// segment is the load between two runs of the reference work.
const segment = time.Second

// drive runs the window: segments of load, each followed by a run of the
// reference work with the load paused, so that the reference work meets
// the host as the load did (README.md, Host speed).
func drive(ws []*worker, window time.Duration, pid int, ref *refWork, traced bool) (windowResult, error) {
	r := windowResult{epoch: time.Now()}
	if traced {
		for _, w := range ws {
			w.log = newSpanLog(r.epoch, cap(w.lat))
		}
	}
	m0, err := machineCPU()
	if err != nil {
		return r, err
	}
	for left := window; left > 0; left -= segment {
		cpu0, err := processCPU(pid)
		if err != nil {
			return r, err
		}
		t0 := time.Now()
		deadline := t0.Add(min(segment, left))
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.measure(deadline)
			}(w)
		}
		wg.Wait()
		r.dur += time.Since(t0)
		cpu1, err := processCPU(pid)
		if err != nil {
			return r, err
		}
		r.cpu += cpu1 - cpu0
		wall, cpu, err := ref.Run()
		if err != nil {
			return r, err
		}
		r.ref, r.refCPU = append(r.ref, wall), append(r.refCPU, cpu)
	}
	m1, err := machineCPU()
	if err != nil {
		return r, err
	}
	r.steal = stealShare(m0, m1)

	var logs []*spanLog
	var reads, upds [][]int64
	for _, w := range ws {
		if r.firstErr == nil {
			r.firstErr = w.firstErr
		}
		logs = append(logs, w.log)
		if w.update {
			r.updAtt += w.attempted
			r.updFail += w.failed
			upds = append(upds, w.lat)
		} else {
			r.readAtt += w.attempted
			r.readFail += w.failed
			r.queries += w.queries
			reads = append(reads, w.lat)
		}
	}
	r.readLat, r.updLat = sortedCopy(reads...), sortedCopy(upds...)
	if len(r.readLat) == 0 {
		return r, fmt.Errorf("no read answered in the window (first error: %v)", r.firstErr)
	}
	if traced {
		r.spans = mergeSpans(logs...)
	}
	return r, nil
}

// figures are a window's end-to-end figures as measured.
type figures struct {
	qps, cpuUsPerQuery          float64
	p50ms, p90ms, p95ms, p99ms  float64
	updPerS, updP50ms, updP95ms float64
}

func (r windowResult) figures() figures {
	ms := func(xs []int64, q float64) float64 { return float64(quantile(xs, q)) / 1e6 }
	f := figures{
		p50ms:    ms(r.readLat, 0.50),
		p90ms:    ms(r.readLat, 0.90),
		p95ms:    ms(r.readLat, 0.95),
		p99ms:    ms(r.readLat, 0.99),
		updP50ms: ms(r.updLat, 0.50),
		updP95ms: ms(r.updLat, 0.95),
	}
	if secs := r.dur.Seconds(); secs > 0 {
		f.qps = float64(r.queries) / secs
		f.updPerS = float64(len(r.updLat)) / secs
	}
	if r.queries > 0 {
		f.cpuUsPerQuery = r.cpu.Seconds() * 1e6 / float64(r.queries)
	}
	return f
}

// checked holds the answers the correctness gate compares against d_H.
type checked struct {
	qs []oracle.Query
	as []oracle.Answer
	ok []bool // the answer arrived
}

func newChecked(n int) *checked {
	return &checked{qs: make([]oracle.Query, n), as: make([]oracle.Answer, n), ok: make([]bool, n)}
}

func (c *checked) set(i int, q oracle.Query, a oracle.Answer) {
	c.qs[i], c.as[i], c.ok[i] = q, a, true
}

// Number of answers per read stream the correctness gate checks.
const (
	checkDistPrefix  = 64  // per point_zipf goroutine
	checkChurnPrefix = 512 // churn_rw reads replayed after the writer stops
)

// distWorkers builds the point_zipf and churn_rw readers: one goroutine
// per stream, spread over the conns; the first prefix answers of each
// stream land in chk.
func distWorkers(conns []*conn, streams [][]oracle.Query, prefix int, chk *checked, warm, expectOps int) []*worker {
	var ws []*worker
	for gi, st := range streams {
		st, base := st, gi*prefix
		ws = append(ws, &worker{
			conn:   conns[gi%len(conns)],
			name:   "wire.Client.Dist",
			warmup: warm,
			lat:    make([]int64, 0, expectOps),
			op: func(c *wire.Client, i int) (int, error) {
				q := st[i%len(st)]
				a, err := c.Dist(q.U, q.V)
				if err == nil && i < prefix {
					chk.set(base+i, q, a)
				}
				return 1, err
			},
		})
	}
	return ws
}

// batchWorkers builds the routed_batch senders; each stream is cut into
// batchSize-query frames and the first frame of each lands in chk.
func batchWorkers(conns []*conn, streams [][]oracle.Query, chk *checked, warm, expectOps int) []*worker {
	var ws []*worker
	for gi, st := range streams {
		st, base := st, gi*batchSize
		frames := len(st) / batchSize
		ws = append(ws, &worker{
			conn:   conns[gi%len(conns)],
			name:   "wire.Client.Batch",
			warmup: warm,
			lat:    make([]int64, 0, expectOps),
			op: func(c *wire.Client, i int) (int, error) {
				k := i % frames
				qs := st[k*batchSize : (k+1)*batchSize]
				as, err := c.Batch(qs)
				if err == nil && i == 0 {
					for j := range qs {
						chk.set(base+j, qs[j], as[j])
					}
				}
				return len(qs), err
			},
		})
	}
	return ws
}

// updateWorkers builds churn_rw's writers: closed-loop toggles over
// pairs, taken in order by churnWriters goroutines sharing one
// connection, tracked in t. Every toggle must apply; one that does not is
// a wrong answer, recorded in *wrong.
func updateWorkers(cn *conn, pairs []graph.Edge, t *edgeTracker, wrong *error, warm, expectOps int) []*worker {
	var next atomic.Int64
	var mu sync.Mutex // guards t and *wrong
	var ws []*worker
	for i := 0; i < churnWriters; i++ {
		ws = append(ws, &worker{
			conn:   cn,
			update: true,
			name:   "wire.Client.Update",
			warmup: warm,
			lat:    make([]int64, 0, expectOps),
			op: func(c *wire.Client, _ int) (int, error) {
				// Toggles in flight together are on distinct pairs (the list
				// is longer than churnWriters), so each one's present state
				// is settled before it is sent.
				k := next.Add(1) - 1
				e := pairs[k%int64(len(pairs))]
				mu.Lock()
				add := !t.has(e)
				mu.Unlock()
				res, err := c.Update(e.U, e.V, add)
				if err != nil {
					return 0, err
				}
				mu.Lock()
				defer mu.Unlock()
				t.toggle(e, add)
				if !res.Applied && *wrong == nil {
					*wrong = fmt.Errorf("toggle %d (%d,%d add=%v) did not apply", k, e.U, e.V, add)
				}
				return 0, nil
			},
		})
	}
	return ws
}
