package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// The host this benchmark runs on is a small VM whose speed is not its own:
// the same binary on the same inputs answered 2.0 M and 2.8 M uniform keys a
// second two minutes apart, and a quarter of an hour can pass a tenth slower
// than the next (README.md, "Why a reference"). A timing taken there says as
// much about the neighbours as about the program.
//
// So every measured window is shared, slice by slice, with a reference: a
// frozen piece of this package that does the same shape of work on the same
// CPU — a binary search over the rule-set's prefixes for the library
// workloads; a byte echo server behind the same sockets, pipelining and
// arrival schedule for the serving ones. The reference calls nothing of the
// program under test, so only the host can change what it measures.
//
// The reference yields the workload's own three timings — operations a
// second, the median latency, CPU time per operation — and each of the
// workload's is divided by the reference's of the same window (CPU time: of
// the same measured span) and multiplied by the reference's nominal value
// below: what it measures on the sizing box on an ordinary stretch (medians
// over the recorded runs), so a reported time is the time that box takes at
// its usual speed. The constants only scale: changing one moves every run of
// every commit alike. wire_churn runs no reference: what it measures is the
// server's own retraining competing for the CPU, which an echo beside it
// would share and cancel.
type refNominal struct {
	qps   float64 // operations per second of the reference's slices
	p50Us float64 // library: one 256-key block; serving: one echoed frame
	cpuUs float64 // CPU time per operation
}

var nominal = map[string]refNominal{
	"lib_zipf":      {qps: 9.2e6, p50Us: 26, cpuUs: 0.108},
	"lib_uniform":   {qps: 6.5e6, p50Us: 36, cpuUs: 0.155},
	"wire_pingpong": {qps: 109e3, p50Us: 7.5, cpuUs: 5.0},
	"wire_burst":    {qps: 1.95e6, p50Us: 18.7, cpuUs: 0.18},
	"wire_open":     {p50Us: 36, cpuUs: 10.9}, // the schedule fixes the rate
}

// refTable is the library workloads' reference: the rules' prefixes in
// ascending order with an action beside each, searched with a plain binary
// search. It is built from the generated inputs alone.
type refTable struct {
	starts  []uint32
	actions []uint64
}

func newRefTable(rs *lpm.RuleSet) *refTable {
	idx := make([]int, rs.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return rs.Rules[idx[a]].Prefix.Lo < rs.Rules[idx[b]].Prefix.Lo })
	t := &refTable{starts: make([]uint32, len(idx)), actions: make([]uint64, len(idx))}
	for i, j := range idx {
		t.starts[i] = uint32(rs.Rules[j].Prefix.Lo)
		t.actions[i] = rs.Rules[j].Action
	}
	return t
}

// find returns the action beside the last prefix at or below k.
func (t *refTable) find(k keys.Value) uint64 {
	key := uint32(k.Lo)
	lo, hi := 0, len(t.starts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.starts[m] <= key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		return 0
	}
	return t.actions[lo-1]
}

// echoServe is the benchmark re-exec'd as the serving workloads' reference:
// it prints its address and echoes every byte on every connection until the
// parent kills it.
func echoServe() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Println(l.Addr())
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		go echoConn(c.(*net.TCPConn))
	}
}

func echoConn(c *net.TCPConn) {
	defer c.Close()
	c.SetNoDelay(true)
	buf := make([]byte, 64<<10)
	for {
		n, err := c.Read(buf)
		if err != nil {
			return
		}
		if _, err := c.Write(buf[:n]); err != nil {
			return
		}
	}
}

// echo is a running echo child.
type echo struct {
	*child
	addr string
}

// startEcho starts the echo child on cpus.
func startEcho(cpus cpuSet) (*echo, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c, stdout, err := startChild(cpus, true, self, "-echo-child")
	if err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	c.reap()
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("echo child: %w: %s", err, c.stderr)
	}
	return &echo{child: c, addr: strings.TrimSpace(line)}, nil
}
