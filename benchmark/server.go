package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// userHz is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux ABI Go supports.
const userHz = 100

// tailBuffer keeps the last max bytes written to it: the child's stderr, for
// the failure message.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is one process the benchmark started, confined from its first
// instruction to the CPUs it will be measured on, so a Go child sizes
// GOMAXPROCS to them as it would in a container of that many CPUs. (Confined
// only after it had started, lpmserve ran two Ps on one CPU, and how its
// threads took turns there changed every second or two: wire_pingpong's
// window medians ranged from 42 000 to 79 000 lookups/s inside one run.) It
// dies with the benchmark (Pdeathsig) and stop is deferred on every path that
// starts one.
type child struct {
	cmd    *exec.Cmd
	stderr *tailBuffer
	exited chan struct{} // closed once Wait returned
}

// startChild starts bin on cpus. With pipe it returns the child's standard
// output for the caller to read before calling reap; without, standard output
// is discarded.
func startChild(cpus cpuSet, pipe bool, bin string, args ...string) (*child, io.ReadCloser, error) {
	c := &child{
		cmd:    exec.Command(bin, args...),
		stderr: &tailBuffer{max: 8 << 10},
		exited: make(chan struct{}),
	}
	c.cmd.Stderr = c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout io.ReadCloser
	if pipe {
		var err error
		if stdout, err = c.cmd.StdoutPipe(); err != nil {
			return nil, nil, err
		}
	}
	if err := startOn(c.cmd, cpus); err != nil {
		return nil, nil, fmt.Errorf("start %s: %w", bin, err)
	}
	return c, stdout, nil
}

// reap waits for the child in the background; call it once the caller no
// longer reads the child's stdout.
func (c *child) reap() {
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop kills the child and waits until it has exited. Nothing a child holds
// outlives it, so there is nothing to drain.
func (c *child) stop() {
	c.cmd.Process.Kill()
	<-c.exited
}

// server is a running lpmserve child.
type server struct {
	*child
	httpAddr, wireAddr string
	sramBytes          float64 // from the first /healthz answer
}

// freeAddr returns a loopback address the kernel just had free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs lpmserve on cpus, on the rule file with the issue's fixed
// flags, and waits for the first /healthz 200. The returned duration — exec to
// healthy: parse, train, listen — is the serving workloads' setup_s.
func startServer(cpus cpuSet, bin, rules string) (*server, time.Duration, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	c, _, err := startChild(cpus, false, bin, "-rules", rules, "-width", strconv.Itoa(keyWidth),
		"-shards", "4", "-addr", httpAddr, "-wire-addr", wireAddr)
	if err != nil {
		return nil, 0, err
	}
	c.reap()
	s := &server{child: c, httpAddr: httpAddr, wireAddr: wireAddr}
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("lpmserve exited before it was healthy: %s", c.stderr)
		default:
		}
		if time.Since(start) > 90*time.Second {
			c.stop()
			return nil, 0, fmt.Errorf("lpmserve not healthy after 90s: %s", c.stderr)
		}
		resp, err := client.Get("http://" + httpAddr + "/healthz")
		if err != nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		setup := time.Since(start)
		var h struct {
			SRAM float64 `json:"sram_bytes"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			c.stop()
			return nil, 0, fmt.Errorf("parse /healthz: %w", err)
		}
		s.sramBytes = h.SRAM
		return s, setup, nil
	}
}

// scrape fetches /metrics and returns the un-labelled series by name.
func (s *server) scrape() (map[string]float64, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + s.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text format, keeping series without labels.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}

// procUsage is a process's resource use read from /proc at one instant.
type procUsage struct {
	userUs, sysUs float64 // cumulative CPU time
	ctxsw         float64 // voluntary + involuntary switches over all threads
	hwmMiB        float64 // peak resident set
}

// parseStat extracts utime and stime (clock ticks) from /proc/<pid>/stat
// text. The command name may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStat(text string) (utime, stime uint64, err error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// parseStatus extracts VmHWM (kB) and the two context-switch counters from
// /proc/<pid>/status or /proc/<pid>/task/<tid>/status text; absent fields
// read as zero.
func parseStatus(text string) (hwmKB, voluntary, involuntary uint64) {
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(val)
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "VmHWM":
			hwmKB = n
		case "voluntary_ctxt_switches":
			voluntary = n
		case "nonvoluntary_ctxt_switches":
			involuntary = n
		}
	}
	return hwmKB, voluntary, involuntary
}

// readUsage reads pid's CPU time and peak RSS; withTasks also sums the
// context switches of every thread.
func readUsage(pid int, withTasks bool) (procUsage, error) {
	var u procUsage
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return u, err
	}
	ut, st, err := parseStat(string(stat))
	if err != nil {
		return u, err
	}
	u.userUs = float64(ut) * 1e6 / userHz
	u.sysUs = float64(st) * 1e6 / userHz
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return u, err
	}
	hwm, _, _ := parseStatus(string(status))
	u.hwmMiB = float64(hwm) / 1024
	if !withTasks {
		return u, nil
	}
	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return u, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, "task", t.Name(), "status"))
		if err != nil {
			continue // the thread exited between ReadDir and here
		}
		_, v, nv := parseStatus(string(b))
		u.ctxsw += float64(v + nv)
	}
	return u, nil
}

// buildServer compiles cmd/lpmserve from the checkout at root into dir and
// returns the binary's path. It is not timed.
func buildServer(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "lpmserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lpmserve")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lpmserve in %s: %w\n%s", root, err, out.String())
	}
	return bin, nil
}
