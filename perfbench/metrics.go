package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric. BENCHMARK.json at the
// repository root lists the same names and units; the smoke test keeps
// the two in step.
type metricSpec struct {
	name     string
	unit     string
	perLayer bool
	// only, when set, is the one workload that measures the metric; the
	// others do not report it, since their 0 would read like a
	// measurement. BENCHMARK.json lists such a metric only while it
	// lists that workload.
	only string
}

// reportedBy reports whether a run of the workload emits the metric.
func (m metricSpec) reportedBy(workload string) bool { return m.only == "" || m.only == workload }

// catalog is every metric a run can report, end-to-end first.
var catalog = buildCatalog()

// paperArtefacts are the 12 paper artefacts timed per layer.
var paperArtefacts = []string{
	"table1", "table2", "figure3", "table3", "figure4", "table4",
	"figure6", "table5", "table6", "table7", "figure7", "table8",
}

// simUnits are the simulated cache structures whose counts are
// reported, by metric prefix and trace.Unit name. The first-level TLBs
// charge no cycles of their own, so they report no cycle count.
var simUnits = []struct {
	prefix string
	unit   string
	cycles bool
}{
	{"cache.l1d", "L1-D", true}, {"cache.l1i", "L1-I", true}, {"cache.l2", "L2", true}, {"cache.l3", "L3", true},
	{"cache.itlb", "I-TLB", false}, {"cache.dtlb", "D-TLB", false}, {"cache.l2tlb", "L2-TLB", true},
	{"cache.btb", "BTB", true}, {"cache.bhb", "BHB", true},
}

func buildCatalog() []metricSpec {
	e2e := func(name, unit string) metricSpec { return metricSpec{name: name, unit: unit} }
	layer := func(name, unit string) metricSpec { return metricSpec{name: name, unit: unit, perLayer: true} }
	sessions := func(name, unit string) metricSpec {
		return metricSpec{name: name, unit: unit, perLayer: true, only: "sessions"}
	}
	c := []metricSpec{
		e2e("setup_s", "s"),
		e2e("cpu_s", "s"),
		e2e("heap_mb", "MiB"),
		e2e("wall_s", "s"),
		e2e("req_per_cpu_s", "1/s"),
		e2e("lat_p50_ms", "ms"),
		e2e("lat_p90_ms", "ms"),
		e2e("restore_p50_ms", "ms"),
	}
	for _, a := range paperArtefacts {
		c = append(c, layer("experiments."+a+"_s", "s"))
	}
	c = append(c,
		layer("client.lat_p99_ms", "ms"),
		layer("experiments.longest_job_s", "s"),
		layer("experiments.runs", "count"),
		layer("experiments.run_ms", "ms"),
		layer("snapshot.captures", "count"),
		layer("snapshot.forks", "count"),
		layer("snapshot.memo_hits", "count"),
		layer("snapshot.capture_ms", "ms"),
		layer("snapshot.fork_ms", "ms"),
		layer("channel.run_s", "s"),
		layer("mi.analyze_s", "s"),
	)
	for _, u := range simUnits {
		c = append(c, layer(u.prefix+".accesses", "count"), layer(u.prefix+".misses", "count"))
		if u.cycles {
			c = append(c, layer(u.prefix+".cycles", "cycles"))
		}
	}
	c = append(c,
		layer("cache.prefetch.issues", "count"),
		layer("cache.host_ns_per_access", "ns"),
		layer("memory.walk.issues", "count"),
		layer("memory.walk.cycles", "cycles"),
		layer("hw.dram.accesses", "count"),
		layer("hw.dram.cycles", "cycles"),
		layer("kernel.cycles", "cycles"),
		layer("kernel.pad_cycles", "cycles"),
		layer("service.hit_ms", "ms"),
		layer("service.miss_ms", "ms"),
		layer("service.disk_ms", "ms"),
		layer("service.forward_ms", "ms"),
		layer("service.hits", "count"),
		layer("service.misses", "count"),
		layer("service.disk_hits", "count"),
		layer("service.forwards", "count"),
		layer("service.hit_ratio", "ratio"),
		layer("cluster.hop_p50_ms", "ms"),
		layer("cluster.hop_p99_ms", "ms"),
		layer("cluster.forwards", "count"),
		sessions("cluster.session_proxies", "count"),
		layer("cluster.replication_puts", "count"),
		layer("cluster.replicated_bytes", "bytes"),
		layer("store.open_ms", "ms"),
		sessions("store.update_p50_ms", "ms"),
		sessions("store.update_p99_ms", "ms"),
		sessions("store.update_bytes_per_step", "bytes"),
		layer("store.puts", "count"),
		layer("store.updates", "count"),
		layer("store.hits", "count"),
		layer("store.misses", "count"),
		sessions("session.create_ms", "ms"),
		sessions("session.step_first_ms", "ms"),
		sessions("session.step_last_ms", "ms"),
		sessions("session.steps", "count"),
		sessions("session.restores", "count"),
		sessions("session.replayed_rounds", "count"),
		layer("trace.overhead_pct", "%"),
		layer("trace.spans", "count"),
		layer("fail_ratio", "ratio"),
	)
	return c
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
// +Inf entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapMB is the live Go heap after a forced collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel extracts the first "model name" from /proc/cpuinfo text.
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
