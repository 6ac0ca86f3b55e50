package telemetry

import (
	"runtime"
	"time"
)

// procStart is captured at package init — close enough to exec time for the
// standard process_start_time_seconds contract (Prometheus uses it to detect
// restarts and compute process age).
var procStart = time.Now()

func init() {
	Default.gauge("neurolpm_process_start_time_seconds",
		"Unix time the process started, in seconds",
		func() float64 { return float64(procStart.UnixNano()) / 1e9 })
}

// SetBuildInfo publishes neurolpm_build_info with the go runtime version
// plus the caller's configuration labels (shards, rules, ...). The
// serving layer calls it once its configuration is known; calling again
// replaces the label set.
func SetBuildInfo(extra map[string]string) {
	labels := map[string]string{"go_version": runtime.Version()}
	for k, v := range extra {
		labels[k] = v
	}
	Default.info("neurolpm_build_info", "Build and configuration info (value is always 1)", labels)
}
