package main

// meshtrace record / meshtrace top — the flight-recorder front ends.
// Both replay a trace from stdin under a mesh-kind allocator with the
// recorder enabled, then render the captured events: record prints the
// event-count tables (and can dump raw events to a file), top renders
// per-heap event rates plus a time-bucketed mesh-phase timeline. Rates
// are per logical second — the replay clock, not wall time — so two runs
// of the same trace report identical numbers.

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/mesh"
)

// traced is the slice of the mesh API the recorder front ends need; the
// jemalloc/glibc baselines don't implement it, so -allocator rejects
// them with a type error instead of silently recording nothing. The
// scalar Malloc/Free/Flush trio is the Allocator-level surface: record
// and top replay through it (not a pinned Thread) so the trace exercises
// the front-end stripe and magazine layers the recorder instruments.
type traced interface {
	alloc.Allocator
	Malloc(size int) (uint64, error)
	Free(addr uint64) error
	Flush() error
	Control(key string, value any) error
	TraceSnapshot() mesh.TraceSnapshot
	Mesh() int
}

// observeFlags are the flags record and top share.
type observeFlags struct {
	kind   *string
	scale  *int
	sample *int
	buffer *int
}

func addObserveFlags(fs *flag.FlagSet) observeFlags {
	return observeFlags{
		kind:   fs.String("allocator", "mesh", "mesh | mesh-nomesh | mesh-norand"),
		scale:  fs.Int("scale", 1, "dirty-threshold scale factor"),
		sample: fs.Int("sample", 1, "record 1 in N alloc/free events (structural events always record)"),
		buffer: fs.Int("buffer", 1<<16, "per-source ring capacity in events (rounded up to a power of two)"),
	}
}

// replayTraced replays stdin's trace with the recorder on and returns the
// snapshot plus the replayed op count. A final explicit Mesh() pass runs
// after the replay so the mesh-phase events appear even for traces whose
// churn never crosses the background trigger.
func replayTraced(o observeFlags) (mesh.TraceSnapshot, int, error) {
	tr, err := workload.ParseTrace(os.Stdin)
	if err != nil {
		return mesh.TraceSnapshot{}, 0, err
	}
	if _, err := tr.Validate(); err != nil {
		return mesh.TraceSnapshot{}, 0, err
	}
	clock := core.NewLogicalClock()
	built, err := experiments.Build(*o.kind, *o.scale, clock)
	if err != nil {
		return mesh.TraceSnapshot{}, 0, err
	}
	a, ok := built.(traced)
	if !ok {
		return mesh.TraceSnapshot{}, 0, fmt.Errorf("allocator %q has no flight recorder (use a mesh kind)", *o.kind)
	}
	for key, v := range map[string]any{
		"trace.sample_rate":   *o.sample,
		"trace.buffer_events": *o.buffer,
		"trace.enabled":       true,
	} {
		if err := a.Control(key, v); err != nil {
			return mesh.TraceSnapshot{}, 0, err
		}
	}
	h := workload.NewHarness(a, clock, 10*time.Millisecond)
	// Replay by hand rather than via Trace.Replay: the final explicit
	// pass must run at the trace's end-state fragmentation — after the
	// recorded ops but before leaked objects are drained — or a leaky
	// trace's meshing opportunity is freed away before we look for it.
	// Ops go through the Allocator-level scalar path (the front end), so
	// stripe and magazine events land in the recording alongside the
	// per-heap ones.
	addrs := make(map[uint64]uint64, 1024)
	for i, op := range tr {
		switch op.Kind {
		case workload.OpAlloc:
			p, err := a.Malloc(op.Size)
			if err != nil {
				return mesh.TraceSnapshot{}, 0, fmt.Errorf("replay op %d: %w", i, err)
			}
			addrs[op.ID] = p
			h.Step(1)
		case workload.OpFree:
			if err := a.Free(addrs[op.ID]); err != nil {
				return mesh.TraceSnapshot{}, 0, fmt.Errorf("replay op %d: %w", i, err)
			}
			delete(addrs, op.ID)
			h.Step(1)
		case workload.OpTick:
			h.Step(op.Size)
		}
	}
	// Relinquish the cached heaps before the final pass: spans attached
	// to a stripe-cached (or pooled) heap are pinned and cannot mesh, and
	// the flush also drains magazine-held objects back into the heap.
	if err := a.Flush(); err != nil {
		return mesh.TraceSnapshot{}, 0, err
	}
	released := a.Mesh()
	series := h.Finish()
	fmt.Printf("%s: replayed %d ops; peak RSS %.2f MiB; final mesh pass released %d spans\n",
		a.Name(), len(tr), stats.MiB(series.PeakRSS()), released)
	return a.TraceSnapshot(), len(tr), nil
}

// logicalSpan returns the trace's covered logical time, floored at one
// tick so rates divide cleanly even for single-event traces.
func logicalSpan(events []mesh.TraceEvent) time.Duration {
	if len(events) == 0 {
		return workload.DefaultTick
	}
	lo, hi := events[0].Time, events[0].Time
	for _, e := range events {
		if e.Time < lo {
			lo = e.Time
		}
		if e.Time > hi {
			hi = e.Time
		}
	}
	if hi <= lo {
		return workload.DefaultTick
	}
	return hi - lo
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	o := addObserveFlags(fs)
	eventsOut := fs.String("events", "", "also dump every captured event to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	snap, _, err := replayTraced(o)
	if err != nil {
		return err
	}
	fmt.Printf("trace: offered %d, captured %d, dropped %d (sample rate 1/%d)\n",
		snap.Offered, len(snap.Events), snap.Dropped, *o.sample)

	span := logicalSpan(snap.Events)
	fmt.Printf("\n%-16s %10s %14s\n", "kind", "events", "events/sec")
	byKind := snap.CountByKind()
	for _, k := range trace.Kinds() {
		if n := byKind[k]; n > 0 {
			fmt.Printf("%-16s %10d %14.0f\n", k, n, float64(n)/span.Seconds())
		}
	}
	fmt.Printf("\n%-16s %10s %14s\n", "source", "events", "events/sec")
	bySrc := snap.CountBySource()
	srcs := make([]uint32, 0, len(bySrc))
	for s := range bySrc {
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, s := range srcs {
		fmt.Printf("%-16s %10d %14.0f\n", trace.SourceName(s), bySrc[s], float64(bySrc[s])/span.Seconds())
	}
	if *eventsOut != "" {
		if err := dumpEvents(*eventsOut, snap.Events); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d events to %s\n", len(snap.Events), *eventsOut)
	}
	return nil
}

// dumpEvents writes one whitespace-separated line per event:
// time_us source kind a b.
func dumpEvents(path string, events []mesh.TraceEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# time_us source kind a b")
	for _, e := range events {
		fmt.Fprintf(w, "%d %s %s %#x %d\n",
			e.Time.Microseconds(), trace.SourceName(e.Src), e.Kind, e.A, e.B)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func top(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	o := addObserveFlags(fs)
	buckets := fs.Int("buckets", 12, "timeline buckets across the trace's logical span")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *buckets < 1 {
		*buckets = 1
	}
	snap, _, err := replayTraced(o)
	if err != nil {
		return err
	}
	if len(snap.Events) == 0 {
		fmt.Println("no events captured")
		return nil
	}
	printTop(os.Stdout, snap, *buckets)
	return nil
}

// printTop renders the per-heap rate table and mesh-phase timeline.
func printTop(w io.Writer, snap mesh.TraceSnapshot, buckets int) {
	span := logicalSpan(snap.Events)
	lo := snap.Events[0].Time
	for _, e := range snap.Events {
		if e.Time < lo {
			lo = e.Time
		}
	}

	// Per-source rates, busiest first, with each source's dominant kind.
	type srcRow struct {
		src     uint32
		n       uint64
		topKind mesh.TraceEventKind
	}
	perSrc := map[uint32]map[mesh.TraceEventKind]uint64{}
	for _, e := range snap.Events {
		m := perSrc[e.Src]
		if m == nil {
			m = map[mesh.TraceEventKind]uint64{}
			perSrc[e.Src] = m
		}
		m[e.Kind]++
	}
	rows := make([]srcRow, 0, len(perSrc))
	for s, kinds := range perSrc {
		r := srcRow{src: s}
		for k, n := range kinds {
			r.n += n
			if n > kinds[r.topKind] || (n == kinds[r.topKind] && k < r.topKind) {
				r.topKind = k
			}
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].src < rows[j].src
	})
	fmt.Fprintf(w, "\n%-16s %10s %14s   %s\n", "source", "events", "events/sec", "top kind")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %10d %14.0f   %s\n",
			trace.SourceName(r.src), r.n, float64(r.n)/span.Seconds(), r.topKind)
	}

	// Mesh-phase timeline: event counts per logical-time bucket for the
	// structural kinds (the sampled alloc/free noise stays out).
	phases := []mesh.TraceEventKind{
		trace.EvMeshProtect, trace.EvMeshCopy, trace.EvMeshRemap,
		trace.EvRemoteDrain, trace.EvDaemonWake, trace.EvPauseOverrun,
	}
	counts := make([]map[mesh.TraceEventKind]uint64, buckets)
	for i := range counts {
		counts[i] = map[mesh.TraceEventKind]uint64{}
	}
	width := span/time.Duration(buckets) + 1
	for _, e := range snap.Events {
		counts[int((e.Time-lo)/width)][e.Kind]++
	}
	fmt.Fprintf(w, "\nmesh-phase timeline (%v per bucket, logical time):\n", width.Round(time.Microsecond))
	fmt.Fprintf(w, "%-22s", "bucket")
	for _, p := range phases {
		fmt.Fprintf(w, " %14s", p)
	}
	fmt.Fprintln(w)
	for i, m := range counts {
		start := lo + time.Duration(i)*width
		fmt.Fprintf(w, "%-22s", fmt.Sprintf("[%v,%v)", start.Round(time.Microsecond), (start+width).Round(time.Microsecond)))
		for _, p := range phases {
			fmt.Fprintf(w, " %14d", m[p])
		}
		fmt.Fprintln(w)
	}
}
