package main

// metric declares one reported number. Every consumer — the printed
// table, the -json file, the result line and BENCHMARK.json — iterates
// this table, so a metric is named, typed and bounded in one place.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is how far an end-to-end metric may worsen, as a share of the
	// parent's median, before a change counts as a regression.
	bound float64
	e2e   bool // measured by the untraced run (else by the traced run)
	// ungated end-to-end metrics are printed for the reader but left out of
	// BENCHMARK.json, so no commit is judged on them.
	ungated bool
	layer   string // module whose behaviour the metric isolates
	moves   string // the end-to-end metric and workload it should move
	flat    string // where it should stay flat
	help    string
}

const (
	lower  = "lower"
	higher = "higher"
)

// metrics is the benchmark's metric table, in print order.
var metrics = concat(
	[]metric{
		{name: "setup_s", unit: "s", better: lower, bound: 0.25, e2e: true,
			help: "allocator construction, input generation and runtime.GC(), up to the first timed request; at nominal machine speed"},
		{name: "ops_per_s", unit: "calls/s", better: higher, bound: 0.25, e2e: true,
			help: "Malloc+Free calls per second of the timed phase, including its quiescent Flush/Mesh; at nominal machine speed"},
		{name: "req_p50_us", unit: "us", better: lower, bound: 0.25, e2e: true,
			help: "median request latency, at nominal machine speed"},
		{name: "req_p99_us", unit: "us", better: lower, bound: 0.25, e2e: true,
			help: "99th-percentile request latency, at nominal machine speed"},
		{name: "rss_mean_mib", unit: "MiB", better: lower, bound: 0.06, e2e: true,
			help: "mean of RSS() sampled by client 0 every 1,000 requests (Figures 6-8)"},
		{name: "rss_peak_mib", unit: "MiB", better: lower, bound: 0.09, e2e: true,
			help: "largest RSS() sample"},
		{name: "rss_final_mib", unit: "MiB", better: lower, bound: 0.09, e2e: true,
			help: "RSS after the quiescent Flush+Mesh, survivors still held (the paper's Redis number)"},
		{name: "req_p999_us", ungated: true, unit: "us", better: lower, e2e: true,
			help: "99.9th-percentile request latency, at nominal machine speed"},
		{name: "wall_ops_per_s", ungated: true, unit: "calls/s", better: higher, e2e: true,
			help: "ops_per_s as the wall clock measured it, before the speed adjustment"},
		{name: "probe_ms", ungated: true, unit: "ms", better: lower, e2e: true,
			help: "the speed probe's time next to the timed phase; a time is adjusted by probeNominalMs/probe_ms"},
		{name: "req_samples", ungated: true, unit: "count", better: higher, e2e: true,
			help: "requests timed in one repeat, all clients"},
		{name: "fail_ratio", ungated: true, unit: "ratio", better: lower, e2e: true,
			help: "calls that returned an error plus content and quiescence check failures, over attempts; any failure exits 1"},
	},
	spanMetrics("mesh.malloc_ns", "mesh, internal/frontend",
		"ops_per_s, req_p50_us @ server-mixed, pipeline-remote", "redis-lru",
		"span around Allocator.Malloc"),
	spanMetrics("mesh.free_ns", "mesh, internal/frontend",
		"ops_per_s, req_p50_us @ server-mixed, pipeline-remote", "redis-lru",
		"span around Allocator.Free"),
	spanMetrics("core.malloc_ns", "internal/core, internal/arena",
		"ops_per_s, req_p99_us @ redis-lru", "",
		"span around Thread.Malloc"),
	spanMetrics("core.free_ns", "internal/core, internal/arena",
		"ops_per_s, req_p99_us @ redis-lru", "",
		"span around Thread.Free"),
	spanMetrics("vm.read_ns", "internal/vm",
		"req_p50_us @ browser-bg, redis-lru", "pipeline-remote",
		"span around Allocator.Read"),
	spanMetrics("vm.write_ns", "internal/vm",
		"req_p50_us @ browser-bg, redis-lru", "pipeline-remote",
		"span around Allocator.Write"),
	spanMetrics("vm.memset_ns", "internal/vm",
		"req_p50_us @ browser-bg", "pipeline-remote",
		"span around Allocator.Memset"),
	spanMetrics("bench.self_ns", "the benchmark itself",
		"nothing: instrumentation health", "",
		"request time not covered by any child span: input bookkeeping, pattern generation and comparison"),
	[]metric{
		{name: "frontend.hit_ratio", unit: "ratio", better: higher, layer: "internal/frontend",
			moves: "ops_per_s @ server-mixed, pipeline-remote", flat: "redis-lru",
			help: "stats.frontend.hits / (hits + misses)"},
		{name: "pool.borrows_per_mcall", unit: "1/Mcall", better: lower, layer: "mesh (pool.go)",
			moves: "ops_per_s @ server-mixed, pipeline-remote", flat: "redis-lru",
			help: "stats.pool.borrows per million Malloc+Free calls"},
		{name: "core.shard_acquires_per_call", unit: "1/call", better: lower, layer: "internal/core",
			moves: "ops_per_s, req_p99_us @ redis-lru; ops_per_s @ server-mixed",
			help:  "stats.global.shard_acquires per Malloc+Free call"},
		{name: "arena.lookups_per_call", unit: "1/call", better: lower, layer: "internal/arena",
			moves: "ops_per_s @ redis-lru, server-mixed",
			help:  "stats.arena.lookups per Malloc+Free call"},
		{name: "core.remote_queued_per_free", unit: "ratio", better: higher, layer: "internal/core (remote.go)",
			moves: "ops_per_s @ pipeline-remote", flat: "redis-lru (no remote frees)",
			help: "stats.remote.queued per Free call"},
		{name: "vm.translations_per_call", unit: "1/call", better: lower, layer: "internal/vm",
			moves: "req_p50_us @ browser-bg, redis-lru", flat: "pipeline-remote",
			help: "stats.vm.translations per Read/Write/Memset call"},
		{name: "vm.retries_per_mtrans", unit: "1/Mtrans", better: lower, layer: "internal/vm",
			moves: "req_p99_us @ browser-bg", flat: "redis-lru",
			help: "seqlock retries per million translations"},
		{name: "core.mesh_passes", unit: "count", better: lower, layer: "internal/core (meshengine.go)",
			moves: "rss_mean_mib, rss_final_mib @ redis-lru, browser-bg", flat: "pipeline-remote",
			help: "meshing passes run in the timed phase"},
		{name: "core.spans_meshed", unit: "count", better: higher, layer: "internal/core (meshengine.go)",
			moves: "rss_mean_mib, rss_final_mib @ redis-lru, browser-bg", flat: "pipeline-remote",
			help: "source spans released by meshing"},
		{name: "core.mesh_freed_mib", unit: "MiB", better: higher, layer: "internal/core (meshengine.go)",
			moves: "rss_mean_mib, rss_final_mib @ redis-lru, browser-bg", flat: "pipeline-remote",
			help: "physical memory released by meshing"},
		{name: "core.mesh_copied_mib", unit: "MiB", better: lower, layer: "internal/core (meshengine.go)",
			moves: "ops_per_s @ redis-lru, browser-bg", flat: "pipeline-remote",
			help: "object bytes copied by meshing"},
		{name: "vm.commits_per_kcall", unit: "1/kcall", better: lower, layer: "internal/vm",
			moves: "rss_mean_mib @ redis-lru, browser-bg", flat: "pipeline-remote",
			help: "fresh physical spans committed per thousand Malloc+Free calls"},
		{name: "vm.punches", unit: "count", better: lower, layer: "internal/vm",
			moves: "rss_mean_mib, rss_final_mib @ redis-lru, browser-bg", flat: "pipeline-remote",
			help: "physical spans returned to the OS"},
		{name: "mem.live_mean_mib", unit: "MiB", better: lower, layer: "the workload",
			moves: "nothing: live bytes are set by the inputs",
			help:  "mean of Stats().Live at the RSS sample points"},
		{name: "mem.rss_over_live", unit: "ratio", better: lower, layer: "internal/core (meshengine.go), internal/vm",
			moves: "rss_mean_mib @ redis-lru, browser-bg", flat: "pipeline-remote",
			help: "rss_mean_mib / mem.live_mean_mib: fragmentation"},
		{name: "core.mesh_pass_ms", unit: "ms", better: lower, layer: "internal/core or internal/meshd",
			moves: "ops_per_s @ redis-lru", flat: "pipeline-remote",
			help: "span around the quiescent Allocator.Mesh"},
		{name: "core.mesh_time_ms", unit: "ms", better: lower, layer: "internal/meshd, mesh barrier",
			moves: "req_p99_us, ops_per_s @ browser-bg", flat: "redis-lru (no daemon)",
			help: "Stats().Mesh.TotalTime in the timed phase (wall clock except on redis-lru's logical clock)"},
		{name: "core.mesh_pause_max_us", unit: "us", better: lower, layer: "internal/meshd, mesh barrier",
			moves: "req_p99_us @ browser-bg", flat: "redis-lru (no daemon)",
			help: "longest shard-lock hold by the mesh engine"},
		{name: "vm.faults", unit: "count", better: lower, layer: "internal/meshd, mesh barrier",
			moves: "req_p99_us, ops_per_s @ browser-bg", flat: "redis-lru (no daemon)",
			help: "write-barrier faults taken by writers racing a mesh"},
		{name: "meshd.restarts", unit: "count", better: lower, layer: "internal/meshd",
			moves: "nothing: must be 0",
			help:  "daemon restarts after recovered panics"},
		{name: "bench.trace_overhead_pct", unit: "%", better: lower, layer: "the benchmark itself",
			moves: "nothing: instrumentation health",
			help:  "gap between untraced and traced ops_per_s medians, as a share of the untraced one"},
	},
)

// spanMetrics declares the three forms of a span metric: the median and
// 99th percentile of the span's duration, and its share of summed request
// time, which caps what speeding up that call can save when nothing
// contends.
func spanMetrics(base, layer, moves, flat, help string) []metric {
	return []metric{
		{name: base + ".p50", unit: "ns", better: lower, layer: layer, moves: moves, flat: flat, help: help + ", median"},
		{name: base + ".p99", unit: "ns", better: lower, layer: layer, moves: moves, flat: flat, help: help + ", 99th percentile"},
		{name: base + ".share", unit: "ratio", better: lower, layer: layer, moves: moves, flat: flat, help: help + ", share of request time"},
	}
}

func concat(groups ...[]metric) []metric {
	var out []metric
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// selectMetrics returns the metrics one mode reports: end-to-end ones for
// an untraced run, per-layer ones for a traced run.
func selectMetrics(traced bool) []metric {
	var out []metric
	for _, m := range metrics {
		if m.e2e != traced {
			out = append(out, m)
		}
	}
	return out
}

// benchmarkFile is the schema of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchE2E      `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measuring time one invocation is given by -seconds.
const runSeconds = 20

// benchmarkJSON derives BENCHMARK.json from the workload and metric tables.
func benchmarkJSON() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{Name: w.name, Why: w.why})
	}
	for _, m := range metrics {
		switch {
		case m.ungated:
		case m.e2e:
			f.EndToEnd = append(f.EndToEnd, benchE2E{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound})
		default:
			f.PerLayer = append(f.PerLayer, benchLayer{Name: m.name, Unit: m.unit, Better: m.better})
		}
	}
	return f
}
