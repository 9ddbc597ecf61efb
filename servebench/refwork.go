package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"
)

// refWork is a fixed amount of the kinds of work the serving stack does,
// on data and code of this file alone, so that no change to the
// repository changes it: breadth-first search over a random graph,
// rebuilding that graph's adjacency arrays, random reads from a table
// larger than the CPU caches, and small writes and reads on a loopback
// TCP connection. Its time measures how fast the host runs such work at
// the time of the run (README.md, Host speed).
type refWork struct {
	copies []*refCopy
}

// refCopy is one core's share of the work, on data of its own.
type refCopy struct {
	edges    [][2]int32
	off, adj []int32 // CSR of the graph
	scratch  []int32 // buildCSR's cursors
	dist     []int32
	queue    []int32
	table    []uint32
	probes   []uint32
	c1, c2   net.Conn
	buf      []byte
	sink     uint64 // depends on every result, so no work can be skipped
}

// Sizes of one copy's work; one run of both copies takes about a third
// of a second on the 2-vCPU host.
const (
	refN           = 1 << 13 // graph vertices
	refM           = 1 << 18 // graph edges, random endpoints
	refBFS         = 64      // searches per run
	refCSR         = 32      // adjacency rebuilds per run
	refTableWords  = 1 << 23 // 32 MiB table
	refTableProbes = 1 << 21 // random reads from it per run
	refTCPRounds   = 8000    // 64-byte messages there and back per run
)

// newRefWork prepares copies copies of the work, to run at once. Close
// releases their connections.
func newRefWork(copies int) (*refWork, error) {
	r := &refWork{}
	for i := 0; i < copies; i++ {
		c, err := newRefCopy(uint32(i))
		if err != nil {
			r.Close()
			return nil, err
		}
		r.copies = append(r.copies, c)
	}
	return r, nil
}

func newRefCopy(salt uint32) (*refCopy, error) {
	x := 0x9e3779b9 ^ salt
	next := func() uint32 { // xorshift32
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	c := &refCopy{edges: make([][2]int32, refM),
		off: make([]int32, refN+1), adj: make([]int32, 2*refM), scratch: make([]int32, refN+1),
		dist: make([]int32, refN), queue: make([]int32, refN),
		table: make([]uint32, refTableWords), probes: make([]uint32, refTableProbes), buf: make([]byte, 64)}
	for i := range c.edges {
		c.edges[i] = [2]int32{int32(next() % refN), int32(next() % refN)}
	}
	c.buildCSR()
	for i := range c.table {
		c.table[i] = next()
	}
	for i := range c.probes {
		c.probes[i] = next() % refTableWords
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		a, err := ln.Accept()
		ch <- accepted{a, err}
	}()
	c.c1, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // ends the Accept
	}
	a := <-ch
	if err != nil || a.err != nil {
		if c.c1 != nil {
			c.c1.Close()
		}
		if a.c != nil {
			a.c.Close()
		}
		return nil, fmt.Errorf("reference work connection: %v", errors.Join(err, a.err))
	}
	c.c2 = a.c
	return c, nil
}

// buildCSR rebuilds off and adj from the edge list by counting sort,
// into the arrays already allocated.
func (c *refCopy) buildCSR() {
	deg := c.scratch
	for i := range deg {
		deg[i] = 0
	}
	for _, e := range c.edges {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	for i := 1; i <= refN; i++ {
		deg[i] += deg[i-1]
	}
	copy(c.off, deg)
	for _, e := range c.edges {
		c.adj[deg[e[0]]] = e[1]
		deg[e[0]]++
		c.adj[deg[e[1]]] = e[0]
		deg[e[1]]++
	}
}

// bfs runs a breadth-first search from s and returns the sum of the
// distances.
func (c *refCopy) bfs(s int32) uint64 {
	for i := range c.dist {
		c.dist[i] = -1
	}
	c.dist[s] = 0
	q := c.queue[:0]
	q = append(q, s)
	sum := uint64(0)
	for h := 0; h < len(q); h++ {
		u := q[h]
		du := c.dist[u]
		sum += uint64(du)
		for _, v := range c.adj[c.off[u]:c.off[u+1]] {
			if c.dist[v] < 0 {
				c.dist[v] = du + 1
				q = append(q, v)
			}
		}
	}
	return sum
}

// run does the copy's work once.
func (c *refCopy) run() error {
	var sink uint64
	for i := 0; i < refBFS; i++ {
		sink += c.bfs(int32(i * 7919 % refN))
	}
	for k := 0; k < refCSR; k++ {
		c.buildCSR()
	}
	for _, p := range c.probes {
		sink += uint64(c.table[p])
	}
	for i := 0; i < refTCPRounds; i++ {
		if _, err := c.c1.Write(c.buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(c.c2, c.buf); err != nil {
			return err
		}
		if _, err := c.c2.Write(c.buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(c.c1, c.buf); err != nil {
			return err
		}
	}
	c.sink = sink
	return nil
}

// Run does every copy's work at once, one goroutine each, and returns
// the wall time until the last copy finished and the CPU time this
// process used meanwhile.
func (r *refWork) Run() (wall, cpu time.Duration, err error) {
	errs := make([]error, len(r.copies))
	var wg sync.WaitGroup
	cpu0, err := selfCPU()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for i, c := range r.copies {
		wg.Add(1)
		go func(i int, c *refCopy) {
			defer wg.Done()
			errs[i] = c.run()
		}(i, c)
	}
	wg.Wait()
	wall = time.Since(t0)
	cpu1, err := selfCPU()
	if err != nil {
		return 0, 0, err
	}
	if err := errors.Join(errs...); err != nil {
		return 0, 0, fmt.Errorf("reference work: %w", err)
	}
	return wall, cpu1 - cpu0, nil
}

func (r *refWork) Close() {
	for _, c := range r.copies {
		if c.c1 != nil {
			c.c1.Close()
		}
		if c.c2 != nil {
			c.c2.Close()
		}
	}
}

// interquartileMean returns the mean of the middle half of ds: the
// quarter of the values at each end are left out.
func interquartileMean(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := len(s) / 4
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}
