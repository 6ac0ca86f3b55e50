#!/usr/bin/env bash
# What the always-on counters cost a key, as a check. BenchmarkLookupOverhead
# and its SRAM-only twin (internal/core/instrument_test.go) time Lookup against
# its own compiled pipeline with no counter, in alternating chunks on one
# engine, and report the difference as overhead-ns/key. This runs each five
# times and fails if the median exceeds 5 ns a key on either engine kind
# (DESIGN.md §8 has the numbers this reads on a 2-vCPU box).
#
#   scripts/telemetry-overhead.sh            # from the repository root
set -euo pipefail

GO=${GO:-go}

"$GO" test -run xxx -bench 'BenchmarkLookupOverhead(SRAMOnly)?$' -benchtime 1s -count 5 ./internal/core/ |
	awk -v limit=5 '
	function median(a, n,    i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		return (n % 2) ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
	}
	/^BenchmarkLookupOverhead/ {
		print
		kind = ($1 ~ /SRAMOnly/) ? "sram-only" : "bucketized"
		for (i = 4; i < NF; i++)
			if ($(i+1) == "overhead-ns/key") d[kind, ++n[kind]] = $i
	}
	END {
		fail = 0
		split("bucketized sram-only", kinds, " ")
		for (k = 1; k <= 2; k++) {
			kind = kinds[k]
			if (!n[kind]) { print "FAIL: no " kind " result"; fail = 1; continue }
			for (i = 1; i <= n[kind]; i++) v[i] = d[kind, i]
			m = median(v, n[kind])
			printf "%s: Lookup − baseline = %.1f ns a key (median of %d), limit %s\n", kind, m, n[kind], limit
			if (m > limit) { print "FAIL: the " kind " counters cost more than " limit " ns a key"; fail = 1 }
		}
		exit fail
	}'
