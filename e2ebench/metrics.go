package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; the self-check test keeps the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics every untraced run prints, on every
// workload. See README.md for what a "job" is on each workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
}

// servePhases are the phase spans a sitamd job's tracer records, in
// the metric-name form of serve.phase.<phase>_s.
var servePhases = []string{
	"pattern_generation", "partition", "compaction",
	"start_solution", "bottom_up_merge", "top_down_merge",
	"remaining_rails_sweep", "core_reshuffle", "ils", "si_schedule",
}

// enginePhases are the engine's phase-duration histograms
// (phase_ns_<phase>) reported as core.phase.<phase>_s.
var enginePhases = []string{
	"start_solution", "bottom_up_merge", "top_down_merge",
	"remaining_rails_sweep", "core_reshuffle", "ils",
}

// perLayer are the metrics every traced run prints. A layer the
// workload does not call reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"soc.load_s", "s"},
		{"sifault.generate_s", "s"},
		{"sifault.patterns", "count"},
		{"core.group_s", "s"},
		{"core.group_self_s", "s"},
		{"hypergraph.partition_s", "s"},
		{"hypergraph.cut_patterns", "count"},
		{"compaction.compact_s", "s"},
		{"compaction.patterns_in", "count"},
		{"compaction.patterns_out", "count"},
		{"compaction.shards", "count"},
		{"trarchitect.baseline_s", "s"},
		{"core.optimize_s", "s"},
	}
	for _, p := range enginePhases {
		defs = append(defs, metricDef{"core.phase." + p + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"core.evals", "count"},
		metricDef{"core.cache_hit_ratio", "ratio"},
		metricDef{"core.eval_rails_memoized_ratio", "ratio"},
		metricDef{"core.pool_util", "ratio"},
		metricDef{"serve.submit_ms", "ms"},
		metricDef{"serve.status_ms", "ms"},
		metricDef{"serve.job_run_s", "s"},
		metricDef{"serve.queue_wait_s", "s"},
		metricDef{"serve.trace_events", "count"},
	)
	for _, p := range servePhases {
		defs = append(defs, metricDef{"serve.phase." + p + "_s", "s"})
	}
	return append(defs,
		metricDef{"serve.journal_open_s", "s"},
		metricDef{"runtime.alloc_gb", "GB"},
		metricDef{"runtime.gc_cpu_s", "s"},
		metricDef{"experiments.self_s", "s"},
		metricDef{"trace.wall_s", "s"},
		metricDef{"trace.overhead_s", "s"},
	)
}()

// layerMap returns every per-layer metric at 0, ready to be filled.
func layerMap() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a counter the workload never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads a finished child's peak resident set (VmHWM, which
// Linux reports as ru_maxrss in KiB).
func peakRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// runtimeSample reads the Go runtime's cumulative allocation and GC CPU
// counters; the difference of two samples is a pass's share.
type runtimeSample struct{ allocBytes, gcCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	return r
}

// addRuntime stores the runtime deltas since before into layers.
func addRuntime(layers map[string]float64, before runtimeSample) {
	after := readRuntime()
	layers["runtime.alloc_gb"] = (after.allocBytes - before.allocBytes) / 1e9
	layers["runtime.gc_cpu_s"] = after.gcCPU - before.gcCPU
}

// environment describes the machine a result was measured on.
func environment() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
	}
}
