package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/wire"
)

// startTimeout bounds one start of a serving process, from spawn to the
// first answered Info.
const startTimeout = 120 * time.Second

// serving is one running dcserve or dcrouter process.
type serving struct {
	cmd     *exec.Cmd
	addr    string        // wire/text listen address
	debug   string        // HTTP sidecar address
	startup []string      // stdout lines up to the listen line
	setup   time.Duration // spawn to first answered Info
	drained chan struct{} // closed once stdout reaches EOF
	stderr  *os.File
}

// startServing spawns bin with args and waits until it answers Info on
// the address its startup output names. Its stderr goes to logPath.
func startServing(bin string, args []string, logPath string) (*serving, error) {
	errf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = errf
	// If the benchmark dies, the kernel kills the serving process too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		errf.Close()
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		errf.Close()
		return nil, err
	}
	s := &serving{cmd: cmd, drained: make(chan struct{}), stderr: errf}
	// A process that never gets to its listen line is killed, which ends
	// the scan below.
	watchdog := time.AfterFunc(startTimeout, func() { cmd.Process.Kill() })
	defer watchdog.Stop()

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		s.startup = append(s.startup, line)
		if _, rest, ok := strings.Cut(line, "debug listening on "); ok {
			s.debug = firstField(rest)
		}
		if _, rest, ok := strings.Cut(line, "serving on "); ok {
			s.addr = firstField(rest)
			break
		}
	}
	go func() {
		for sc.Scan() {
		}
		close(s.drained)
	}()
	if s.addr == "" || s.debug == "" {
		s.stop()
		return nil, fmt.Errorf("%s exited before listening; stdout %q; stderr in %s", bin, s.startup, logPath)
	}
	c, err := wire.Dial(s.addr, wire.ClientOptions{})
	if err == nil {
		_, err = c.Info()
		c.Close()
	}
	s.setup = time.Since(t0)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("%s: first Info: %w", bin, err)
	}
	return s, nil
}

func (s *serving) pid() int { return s.cmd.Process.Pid }

// stop asks the process to drain (SIGTERM), kills it if it has not
// exited within 20 s, and waits for it.
func (s *serving) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
	}
	s.cmd.Wait()
	s.stderr.Close()
}

func firstField(s string) string {
	if f := strings.Fields(s); len(f) > 0 {
		return f[0]
	}
	return ""
}

// startupInfo is what a serving process reports about itself at start.
type startupInfo struct {
	n, m, hm int
	backend  string
}

var (
	reG       = regexp.MustCompile(`^G: n=(\d+) m=(\d+)`)
	reH       = regexp.MustCompile(`^H \([^)]*\): m=(\d+)`)
	reBackend = regexp.MustCompile(`^(?:oracle: backend=|worker oracle backend: )(\S+)`)
)

// parseStartup reads the input shape, the spanner size and the serving
// backend from dcserve's or dcrouter's startup output.
func parseStartup(lines []string) (startupInfo, error) {
	var si startupInfo
	var haveG, haveH bool
	for _, l := range lines {
		if m := reG.FindStringSubmatch(l); m != nil {
			si.n, _ = strconv.Atoi(m[1])
			si.m, _ = strconv.Atoi(m[2])
			haveG = true
		}
		if m := reH.FindStringSubmatch(l); m != nil {
			si.hm, _ = strconv.Atoi(m[1])
			haveH = true
		}
		if m := reBackend.FindStringSubmatch(l); m != nil {
			si.backend = m[1]
		}
	}
	if !haveG || !haveH || si.backend == "" {
		return si, fmt.Errorf("startup output lacks the G, H or backend line: %q", lines)
	}
	return si, nil
}

// checkStartup fails unless the process reports the expected shape.
func checkStartup(lines []string, want startupInfo) error {
	got, err := parseStartup(lines)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("startup reports n=%d m=%d H m=%d backend=%s, want n=%d m=%d H m=%d backend=%s",
			got.n, got.m, got.hm, got.backend, want.n, want.m, want.hm, want.backend)
	}
	return nil
}
