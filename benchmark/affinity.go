package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a CPU affinity mask as the kernel takes it: bit i of word i/64
// is CPU i.
type cpuSet [16]uint64

func (s *cpuSet) set(cpu int)     { s[cpu/64] |= 1 << (uint(cpu) % 64) }
func (s cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(uint(cpu)%64)) != 0 }

func (s cpuSet) list() []int {
	var out []int
	for cpu := 0; cpu < 64*len(s); cpu++ {
		if s.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

// setAffinity confines thread tid (0 = the calling thread) to cpus.
func setAffinity(tid int, cpus cpuSet) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(cpus), uintptr(unsafe.Pointer(&cpus))); e != 0 {
		return e
	}
	return nil
}

// allowedCPUs returns the CPUs the calling thread may run on.
func allowedCPUs() (cpuSet, error) {
	var allowed cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return allowed, fmt.Errorf("sched_getaffinity: %w", e)
	}
	if len(allowed.list()) == 0 {
		return allowed, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	return allowed, nil
}

// placement says where a workload's two sides run while it is measured, out
// of the allowed CPUs. A library workload's set-up runs on all of them; a
// server child is set up where it will serve.
//
// On this kind of VM a wake-up that crosses cores costs an inter-processor
// interrupt through the hypervisor and one on the same core does not, and the
// kernel moves threads between the two arrangements every few seconds:
// unconfined, wire_pingpong's window medians ranged from 14 to 80 us inside
// one run and its p50 from 31 to 62 us between runs. So every workload is
// given one arrangement and keeps it:
//
//   - library workloads: this process on one CPU, so the measuring goroutine
//     is never migrated;
//   - closed loops: load generator and server on the same CPU. Caller and
//     server alternate, so they need no second core, and sharing one keeps
//     the hypervisor out of every hop: what is left is the program's own work;
//   - open loops: load generator on the first CPU, server on the rest. The
//     pacer must spin (a short sleep takes a millisecond here) and would
//     starve a server that shared its core.
//
// With a single allowed CPU everything shares it.
func placement(workload string, allowed cpuSet) (load, server cpuSet) {
	cpus := allowed.list()
	last := cpus[len(cpus)-1]
	switch {
	case len(cpus) == 1 || workload == "wire_pingpong" || workload == "wire_burst":
		load.set(last)
		server.set(last)
	case isLib(workload):
		load.set(last)
	default:
		load.set(cpus[0])
		for _, c := range cpus[1:] {
			server.set(c)
		}
	}
	return load, server
}

// startOn starts cmd with cpus as its affinity mask: the calling thread takes
// the mask for the fork, which the child inherits, and then its own back.
func startOn(cmd *exec.Cmd, cpus cpuSet) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	own, err := allowedCPUs()
	if err != nil {
		return err
	}
	if err := setAffinity(0, cpus); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	err = cmd.Start()
	if e := setAffinity(0, own); e != nil && err == nil {
		err = fmt.Errorf("sched_setaffinity back: %w", e)
	}
	return err
}

// pinProcess confines every thread of this process to cpus. Threads are
// visited twice: one created during the first pass by a thread not yet
// confined is caught by the second, and any created later inherits its
// creator's mask.
func pinProcess(cpus cpuSet) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, cpus); err != nil && err != syscall.ESRCH { // ESRCH: the thread exited meanwhile
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
		}
	}
	return nil
}
