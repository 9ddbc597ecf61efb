package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the tick rate of the CPU times in /proc. Linux fixes it at
// 100 for every architecture's user-space ABI, whatever the kernel's
// internal HZ.
const userHZ = 100

// parseProcStat extracts utime and stime (in ticks) from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself hold spaces or parentheses, so fields are counted from the last
// ')'; utime and stime are fields 14 and 15 of the line.
func parseProcStat(b []byte) (utime, stime uint64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so field k is f[k-3].
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime, stime, nil
}

// processCPU returns the user+system CPU time pid has used so far.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	u, s, err := parseProcStat(b)
	if err != nil {
		return 0, err
	}
	return time.Duration(u+s) * time.Second / userHZ, nil
}

// selfCPU returns the user+system CPU time this process has used so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuTimes is the machine-wide "cpu" line of /proc/stat: total ticks
// across user, nice, system, idle, iowait, irq, softirq and steal (guest
// time is already inside user and nice), and the steal ticks alone.
type cpuTimes struct{ total, steal uint64 }

func parseCPULine(line string) (cpuTimes, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("proc stat: bad cpu line %q", line)
	}
	var t cpuTimes
	for k := 1; k <= 8; k++ {
		v, err := strconv.ParseUint(f[k], 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("proc stat: cpu field %d: %w", k, err)
		}
		t.total += v
		if k == 8 {
			t.steal = v
		}
	}
	return t, nil
}

func machineCPU() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuTimes{}, err
	}
	return parseCPULine(line)
}

// stealShare is the share of machine CPU time stolen by the hypervisor
// between two readings.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// promSamples maps each series of a Prometheus text exposition, by its name
// with any label set (e.g. `oracle_cache_hits_total{backend="x"}`), to its value.
type promSamples map[string]float64

// parseProm reads the sample lines of a Prometheus text exposition.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds up every series whose name, before any label set, is name.
func (p promSamples) sum(name string) float64 {
	s := 0.0
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// scrape fetches and parses a debug sidecar's /metrics.
func scrape(debugAddr string) (promSamples, error) {
	b, err := httpGet("http://" + debugAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(b))
}

// liveHeapBytes forces a GC in the serving process through the heap
// profile endpoint, then reads its heap gauge. It forces two: objects in
// sync.Pools survive the first in the pools' victim caches.
func liveHeapBytes(debugAddr string) (float64, error) {
	for i := 0; i < 2; i++ {
		if _, err := httpGet("http://" + debugAddr + "/debug/pprof/heap?gc=1"); err != nil {
			return 0, err
		}
	}
	m, err := scrape(debugAddr)
	if err != nil {
		return 0, err
	}
	v, ok := m["go_heap_alloc_bytes"]
	if !ok {
		return 0, fmt.Errorf("metrics: no go_heap_alloc_bytes")
	}
	return v, nil
}
