package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/mesh"
)

// workload is one closed-loop traffic shape. Each repeat prepares a fresh
// allocator and fresh inputs, so repeats are independent samples.
type workload struct {
	name    string
	clients int
	loop    string // the client loop and the API it drives
	why     string // one line, copied to BENCHMARK.json
	prepare func(seed uint64, scale int) instance
}

// instance is one repeat of a workload: an allocator plus the inputs,
// generated before the clock starts.
type instance interface {
	allocator() *mesh.Allocator
	// requests is how many requests client i will time.
	requests(i int) int
	// run is client c's timed loop; all clients run concurrently.
	run(c *client)
	// teardown frees every survivor, verifying it, after the clock stops.
	teardown(c *client)
}

// repeatResult is what one repeat leaves behind once its raw samples have
// been reduced: one value per metric it measured.
type repeatResult struct {
	traced    bool
	wall      time.Duration // the timed phase
	values    map[string]float64
	attempted uint64
	failed    uint64
	errs      []string
}

// counters is the allocator's cumulative state at one instant.
type counters struct {
	st                                             mesh.Stats
	hits, misses, borrows, shard, lookups, restart uint64
}

func readCounters(a *mesh.Allocator) counters {
	return counters{
		st:      a.Stats(),
		hits:    controlUint(a, "stats.frontend.hits"),
		misses:  controlUint(a, "stats.frontend.misses"),
		borrows: controlUint(a, "stats.pool.borrows"),
		shard:   controlUint(a, "stats.global.shard_acquires"),
		lookups: controlUint(a, "stats.arena.lookups"),
		restart: controlUint(a, "stats.meshd.restarts"),
	}
}

// controlUint reads a numeric control key; the keys read here are all
// declared in mesh/control.go, so a failure is a bug in this file.
func controlUint(a *mesh.Allocator, key string) uint64 {
	v, err := a.ReadControl(key)
	if err != nil {
		panic(err)
	}
	switch n := v.(type) {
	case uint64:
		return n
	case int64:
		return uint64(n)
	case int:
		return uint64(n)
	}
	panic(fmt.Sprintf("control %s has type %T", key, v))
}

// setupSamples is how many times a repeat sets up; the last instance runs
// the timed phase. One set-up takes 15-150 ms and can take twice as long
// as the one before it, so a repeat reports the median of these.
const setupSamples = 3

// runRepeat runs one repeat: set-up, the timed phase, then the untimed
// teardown and quiescence checks. onSpans, if set, receives the traced
// repeat's spans before they are dropped.
func runRepeat(w *workload, seed uint64, scale int, traced bool, onSpans func([]*client)) repeatResult {
	var inst instance
	var cs []*client
	var closeErr error // from the allocators of the set-ups not kept
	setups := make([]float64, setupSamples)
	for i := range setups {
		if inst != nil {
			closeErr = errors.Join(closeErr, inst.allocator().Close())
			inst, cs = nil, nil
		}
		// Collect the previous repeat or set-up first, so that no set-up is
		// charged for another's garbage.
		runtime.GC()
		t0 := time.Now()
		inst = w.prepare(seed, scale)
		cs = make([]*client, w.clients)
		for j := range cs {
			cs[j] = newClient(j, inst.allocator(), traced, inst.requests(j))
		}
		runtime.GC()
		setups[i] = time.Since(t0).Seconds()
	}
	a := inst.allocator()
	if closeErr != nil {
		cs[0].fail("close", closeErr)
	}
	// The allocator is idle for both probes, and the collection before the
	// second one finishes the timed phase's garbage first.
	probeBefore := probe(w.clients, scale)

	before := readCounters(a)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst.run(c)
		}()
	}
	wg.Wait()
	c0 := cs[0]
	c0.quiet(spFlush, a.Flush)
	meshPass := c0.quiet(spMeshPass, func() error { a.Mesh(); return nil })
	rssFinal := a.RSS()
	wall := time.Since(start)
	after := readCounters(a)
	runtime.GC()
	probeAfter := probe(w.clients, scale)

	td := newClient(0, a, false, 0)
	inst.teardown(td)
	quiescence(a, td)

	v := measure(cs, before, after, wall, rssFinal)
	v["setup_s"] = median(setups)
	v["probe_ms"] = (probeBefore + probeAfter) / 2
	adjustForSpeed(v)
	v["core.mesh_pass_ms"] = float64(meshPass) / 1e6
	if traced {
		spanValues(cs, v)
		if onSpans != nil {
			onSpans(cs)
		}
	}
	r := repeatResult{traced: traced, wall: wall, values: v}
	for _, c := range append(cs, td) {
		r.attempted += c.mallocs + c.frees + c.dataCalls + c.checks
		r.failed += c.failed
		r.errs = append(r.errs, c.errs...)
	}
	v["fail_ratio"] = ratio(float64(r.failed), float64(r.attempted))
	return r
}

// quiescence stops the daemon, relinquishes every cached heap, and
// requires the allocator's exact identities for an empty heap.
func quiescence(a *mesh.Allocator, c *client) {
	if err := a.Close(); err != nil {
		c.fail("close", err)
	}
	if err := a.Flush(); err != nil {
		c.fail("flush", err)
	}
	st := a.Stats()
	c.expect(st.Allocs == st.Frees && st.Live == 0,
		"allocs %d, frees %d, live %d after freeing everything", st.Allocs, st.Frees, st.Live)
	c.expect(st.Remote.Queued == st.Remote.Drained,
		"remote frees queued %d, drained %d", st.Remote.Queued, st.Remote.Drained)
	cached := controlUint(a, "stats.frontend.cached_objects")
	c.expect(cached == 0, "%d objects still cached in the front end", cached)
	restarts := controlUint(a, "stats.meshd.restarts")
	c.expect(restarts == 0, "meshing daemon restarted %d times", restarts)
	err := a.CheckIntegrity()
	c.expect(err == nil, "heap integrity: %v", err)
}

func (c *client) expect(ok bool, format string, args ...any) {
	c.checks++
	if !ok {
		c.fail("quiescence", fmt.Errorf(format, args...))
	}
}

func mib(bytes float64) float64 { return bytes / (1 << 20) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure reduces one repeat's samples and counter deltas to metric
// values.
func measure(cs []*client, before, after counters, wall time.Duration, rssFinal int64) map[string]float64 {
	var lat []int64
	var mallocs, frees, data float64
	for _, c := range cs {
		lat = append(lat, c.lat...)
		mallocs += float64(c.mallocs)
		frees += float64(c.frees)
		data += float64(c.dataCalls)
	}
	slices.Sort(lat)
	calls := mallocs + frees
	v := map[string]float64{
		"ops_per_s":      calls / wall.Seconds(),
		"wall_ops_per_s": calls / wall.Seconds(),
		"req_samples":    float64(len(lat)),
		"rss_final_mib":  mib(float64(rssFinal)),
	}
	for name, q := range map[string]float64{"req_p50_us": 0.50, "req_p99_us": 0.99, "req_p999_us": 0.999} {
		if x, ok := percentile(lat, q); ok {
			v[name] = float64(x) / 1e3
		}
	}
	if rss, live := cs[0].rss, cs[0].live; len(rss) > 0 {
		var sum, liveSum float64
		for i, x := range rss {
			sum += float64(x)
			liveSum += float64(live[i])
		}
		v["rss_mean_mib"] = mib(sum / float64(len(rss)))
		v["rss_peak_mib"] = mib(float64(slices.Max(rss)))
		v["mem.live_mean_mib"] = mib(liveSum / float64(len(rss)))
		v["mem.rss_over_live"] = ratio(sum, liveSum)
	}

	delta := func(after, before uint64) float64 { return float64(after - before) }
	s0, s1 := before.st, after.st
	hits, misses := delta(after.hits, before.hits), delta(after.misses, before.misses)
	trans := delta(s1.VM.Translations, s0.VM.Translations)
	v["frontend.hit_ratio"] = ratio(hits, hits+misses)
	v["pool.borrows_per_mcall"] = ratio(delta(after.borrows, before.borrows)*1e6, calls)
	v["core.shard_acquires_per_call"] = ratio(delta(after.shard, before.shard), calls)
	v["arena.lookups_per_call"] = ratio(delta(after.lookups, before.lookups), calls)
	v["core.remote_queued_per_free"] = ratio(delta(s1.Remote.Queued, s0.Remote.Queued), frees)
	v["vm.translations_per_call"] = ratio(trans, data)
	v["vm.retries_per_mtrans"] = ratio(delta(s1.VM.Retries, s0.VM.Retries)*1e6, trans)
	v["core.mesh_passes"] = delta(s1.Mesh.Passes, s0.Mesh.Passes)
	v["core.spans_meshed"] = delta(s1.Mesh.SpansMeshed, s0.Mesh.SpansMeshed)
	v["core.mesh_freed_mib"] = mib(delta(s1.Mesh.BytesFreed, s0.Mesh.BytesFreed))
	v["core.mesh_copied_mib"] = mib(delta(s1.Mesh.BytesCopied, s0.Mesh.BytesCopied))
	v["vm.commits_per_kcall"] = ratio(delta(s1.VM.Commits, s0.VM.Commits)*1e3, calls)
	v["vm.punches"] = delta(s1.VM.Punches, s0.VM.Punches)
	v["vm.faults"] = delta(s1.VM.Faults, s0.VM.Faults)
	v["core.mesh_time_ms"] = float64(s1.Mesh.TotalTime-s0.Mesh.TotalTime) / 1e6
	v["core.mesh_pause_max_us"] = float64(s1.Mesh.LongestPause) / 1e3
	v["meshd.restarts"] = delta(after.restart, before.restart)
	return v
}

// spanValues reduces a traced repeat's spans to the span metrics: for each
// call kind the median and 99th percentile of its duration and its share
// of summed request time, plus the same for the benchmark's self time.
func spanValues(cs []*client, v map[string]float64) {
	var durs [numSpanKinds][]int64
	var sums [numSpanKinds]float64
	var self []int64
	var selfSum, reqSum float64
	var children []interval
	for _, c := range cs {
		children = children[:0]
		// A request's children are recorded before the request itself.
		for _, s := range c.spans {
			switch {
			case s.req == quietReq:
			case s.kind == spRequest:
				st := selfTime(interval{s.start, s.end}, children)
				self = append(self, st)
				selfSum += float64(st)
				reqSum += float64(s.end - s.start)
				children = children[:0]
			default:
				durs[s.kind] = append(durs[s.kind], s.end-s.start)
				sums[s.kind] += float64(s.end - s.start)
				children = append(children, interval{s.start, s.end})
			}
		}
	}
	put := func(base string, xs []int64, sum float64) {
		slices.Sort(xs)
		p50, _ := percentile(xs, 0.50)
		p99, _ := percentile(xs, 0.99)
		v[base+".p50"] = float64(p50)
		v[base+".p99"] = float64(p99)
		v[base+".share"] = ratio(sum, reqSum)
	}
	for _, k := range []spanKind{spMeshMalloc, spMeshFree, spCoreMalloc, spCoreFree, spRead, spWrite, spMemset} {
		put(spanNames[k]+"_ns", durs[k], sums[k])
	}
	put("bench.self_ns", self, selfSum)
}

// summarize reduces a workload's repeats to one value per metric, the
// median of its repeat values.
func summarize(rs []repeatResult) map[string]float64 {
	out := map[string]float64{}
	for _, m := range metrics {
		if xs := repeatValues(rs, m.name); len(xs) > 0 {
			out[m.name] = median(xs)
		}
	}
	untraced, traced := valuesOf(rs, "ops_per_s", false), valuesOf(rs, "ops_per_s", true)
	if len(untraced) > 0 && len(traced) > 0 {
		u := median(untraced)
		out["bench.trace_overhead_pct"] = 100 * (u - median(traced)) / u
	}
	return out
}

// repeatValues collects a metric's per-repeat values: from the untraced
// repeats where they measured it (every end-to-end and counter metric),
// else from the traced repeats (the span metrics).
func repeatValues(rs []repeatResult, name string) []float64 {
	if xs := valuesOf(rs, name, false); len(xs) > 0 {
		return xs
	}
	return valuesOf(rs, name, true)
}

// valuesOf collects metric name from the traced or untraced repeats.
func valuesOf(rs []repeatResult, name string, traced bool) []float64 {
	var xs []float64
	for _, r := range rs {
		if x, ok := r.values[name]; ok && r.traced == traced {
			xs = append(xs, x)
		}
	}
	return xs
}
