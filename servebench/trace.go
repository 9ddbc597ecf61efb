package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the log's epoch; parent is the index of the
// enclosing span in the same log, or -1.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        uint64
}

// spanLog keeps spans in memory until the run ends. Load goroutines
// each get their own log, merged afterwards; the lock serves the replay
// whose spans open on the benchmark's goroutine and nest on a server's.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time, capacity int) *spanLog {
	return &spanLog{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end.
func (l *spanLog) begin(name string, parent int32, req uint64) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, start: int64(time.Since(l.epoch)), parent: parent, req: req})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].end = int64(time.Since(l.epoch))
}

// add records a span whose bounds the caller already measured.
func (l *spanLog) add(name string, start, end time.Time, parent int32, req uint64) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, start: int64(start.Sub(l.epoch)),
		end: int64(end.Sub(l.epoch)), parent: parent, req: req})
	return int32(len(l.spans) - 1)
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := map[int32][][2]int64{}
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		iv := kids[int32(i)]
		if len(iv) == 0 {
			continue
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, c := range iv {
			lo, hi := max64(c[0], s.start), min64(c[1], s.end)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count      int
	total, own int64 // summed duration and self time, ns
}

func (s spanStat) meanNs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count)
}

func (s spanStat) meanSelfNs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.own) / float64(s.count)
}

func aggregate(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := map[string]spanStat{}
	for i, s := range spans {
		st := out[s.name]
		st.count++
		st.total += s.end - s.start
		st.own += self[i]
		out[s.name] = st
	}
	return out
}

// writeSpans writes spans as CSV (name, request id, parent index, start
// and end in ns since the log epoch, self time in ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := selfTimes(spans)
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "name,req,parent,start_ns,end_ns,self_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.req, s.parent, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mergeSpans concatenates logs that share an epoch, re-basing each
// log's parent indices.
func mergeSpans(logs ...*spanLog) []span {
	var out []span
	for _, l := range logs {
		if l == nil {
			continue
		}
		base := int32(len(out))
		for _, s := range l.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
