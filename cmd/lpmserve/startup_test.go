package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"neurolpm/internal/workload"
)

// TestStartupAllocatesNoWholeSetCopy guards lpmserve's start-up peak: reading
// a 200 K-rule file and building four shards over it (load, as main runs it)
// may allocate at most 1.25 times the live heap the server then retains. The
// rules, their ranges and the shard engines are all retained, so a transient
// copy of the whole set — the file's text, a copy of the rules per shard, a
// conversion buffer bigger than its result — breaks the budget. Allocated
// bytes are runtime.MemStats.TotalAlloc, which does not depend on when the
// collector runs.
func TestStartupAllocatesNoWholeSetCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	rs, err := workload.Generate(workload.RIPE(), 200000, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(path, []byte(rs.Format()), 0o600); err != nil {
		t.Fatal(err)
	}
	rs = nil
	memStats := func() runtime.MemStats {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m
	}
	before := memStats()
	srv, _ := load(&options{rules: path, width: 32, bucket: 8, shards: 4})
	allocated := memStats().TotalAlloc - before.TotalAlloc
	retained := memStats().HeapAlloc - before.HeapAlloc
	runtime.KeepAlive(srv)
	t.Logf("start-up allocated %.1f MB, retains %.1f MB", float64(allocated)/1e6, float64(retained)/1e6)
	if float64(allocated) > 1.25*float64(retained) {
		t.Errorf("start-up allocated %d bytes, more than 1.25 × the %d it retains: a whole-set copy is back", allocated, retained)
	}
}
