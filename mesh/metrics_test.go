package mesh

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// parseMetrics reads the exposition text into name -> value, keeping
// only plain sample lines (labels included verbatim in the name).
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			t.Fatalf("duplicate metric %q", line[:i])
		}
		out[line[:i]] = v
	}
	return out
}

func TestWriteMetricsCoversEveryReadableKey(t *testing.T) {
	a := New(WithSeed(1), WithClock(NewLogicalClock()))
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := a.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	got := parseMetrics(t, buf.String())

	for _, c := range controls {
		if c.get == nil || c.noExport {
			continue
		}
		name := metricName(c.name)
		// Each series is headed by its entry's help text.
		series := name
		if _, ok := got[name]; !ok {
			series = name + "_seconds"
		}
		if help := "# HELP " + series + " " + c.help + "\n"; !strings.Contains(buf.String(), help) {
			t.Errorf("export lacks %q", help)
		}
		if name == "mesh_stats_mesh_pauses" {
			// The histogram expands into derived series.
			for _, suffix := range []string{"_seconds_sum", "_seconds_count", `_seconds_bucket{le="+Inf"}`} {
				if _, ok := got[name+suffix]; !ok {
					t.Errorf("histogram series %s%s missing from export", name, suffix)
				}
			}
			continue
		}
		if _, okPlain := got[name]; !okPlain {
			if _, okSecs := got[name+"_seconds"]; !okSecs {
				t.Errorf("metric for key %s missing from export", name)
			}
		}
	}

	// Spot-check values against the live allocator.
	if got["mesh_stats_allocs"] != 1 || got["mesh_stats_frees"] != 1 {
		t.Errorf("allocs/frees: got %v/%v, want 1/1", got["mesh_stats_allocs"], got["mesh_stats_frees"])
	}
	// Two Allocator-level calls: the first misses the empty stripe and
	// borrows from the pool, the second hits the cached front — so exactly
	// one pool borrow and no return (the heap stays parked on the stripe).
	if got["mesh_stats_pool_borrows"] != 1 || got["mesh_stats_pool_returns"] != 0 {
		t.Errorf("pool hand-offs: got %v/%v, want 1/0",
			got["mesh_stats_pool_borrows"], got["mesh_stats_pool_returns"])
	}
	if got["mesh_stats_frontend_hits"] != 1 || got["mesh_stats_frontend_misses"] != 1 {
		t.Errorf("frontend stripe traffic: got %v hits/%v misses, want 1/1",
			got["mesh_stats_frontend_hits"], got["mesh_stats_frontend_misses"])
	}
	if got["mesh_trace_enabled"] != 0 {
		t.Errorf("tracing should default off, got %v", got["mesh_trace_enabled"])
	}
	if rss := a.RSS(); got["mesh_stats_rss"] != float64(rss) {
		t.Errorf("rss: exported %v, allocator reports %d", got["mesh_stats_rss"], rss)
	}

	// Output is deterministic for a quiesced allocator.
	var again bytes.Buffer
	if err := a.WriteMetrics(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Error("WriteMetrics output not deterministic across calls on a quiesced allocator")
	}
}

func TestMetricsHandler(t *testing.T) {
	a := New(WithSeed(1), WithClock(NewLogicalClock()))
	srv := httptest.NewServer(a.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	m := parseMetrics(t, buf.String())
	if _, ok := m["mesh_stats_live"]; !ok {
		t.Fatalf("scrape missing mesh_stats_live:\n%s", buf.String())
	}
}

func TestTraceSnapshotThroughAllocator(t *testing.T) {
	a := New(WithSeed(1), WithClock(NewLogicalClock()), writeControl("trace.enabled", true), writeControl("trace.sample_rate", 1))

	const n = 200
	ptrs := make([]Ptr, 0, n)
	for i := 0; i < n; i++ {
		p, err := a.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}

	snap := a.TraceSnapshot()
	if snap.Offered == 0 {
		t.Fatal("tracing enabled but no events offered")
	}
	if snap.Offered != snap.Dropped+uint64(len(snap.Events)) {
		t.Fatalf("accounting: offered %d != dropped %d + events %d",
			snap.Offered, snap.Dropped, len(snap.Events))
	}
	byKind := snap.CountByKind()
	if byKind[TraceEventKind(1)] == 0 { // EvAlloc
		t.Fatalf("no alloc events in snapshot: %v", byKind)
	}

	// Controls and the exporter see the same accounting.
	offered, err := a.ReadControl("trace.offered")
	if err != nil {
		t.Fatal(err)
	}
	if offered.(uint64) != snap.Offered {
		t.Fatalf("trace.offered %d != snapshot offered %d", offered, snap.Offered)
	}
	dropped, err := a.ReadControl("trace.dropped")
	if err != nil {
		t.Fatal(err)
	}
	if dropped.(uint64) != snap.Dropped {
		t.Fatalf("trace.dropped %d != snapshot dropped %d at quiescence", dropped, snap.Dropped)
	}

	var buf bytes.Buffer
	if err := a.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	m := parseMetrics(t, buf.String())
	if m["mesh_trace_offered"] != float64(snap.Offered) {
		t.Fatalf("exporter trace_offered %v != %d", m["mesh_trace_offered"], snap.Offered)
	}

	// Disabling stops recording but retains history.
	if err := a.Control("trace.enabled", false); err != nil {
		t.Fatal(err)
	}
	if p, err := a.Malloc(64); err != nil {
		t.Fatal(err)
	} else if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if after := a.TraceSnapshot(); after.Offered != snap.Offered {
		t.Fatalf("events recorded while disabled: %d -> %d", snap.Offered, after.Offered)
	}
}

func TestTraceCapturesMeshPhases(t *testing.T) {
	clock := NewLogicalClock()
	a := New(WithSeed(9), WithClock(clock), writeControl("trace.enabled", true), writeControl("trace.sample_rate", 1))

	// Build a meshable heap: allocate everything, then free 15 of every
	// 16 objects so released spans sit at ~6% occupancy.
	th := a.NewThread()
	var all []Ptr
	for i := 0; i < 64*256; i++ {
		p, err := th.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, p)
	}
	for i, p := range all {
		if i%16 != 0 {
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := th.Close(); err != nil {
		t.Fatal(err)
	}
	if released := a.Mesh(); released == 0 {
		t.Fatal("expected the setup to produce meshes")
	}

	byKind := map[string]uint64{}
	for k, n := range a.TraceSnapshot().CountByKind() {
		byKind[fmt.Sprint(k)] = n
	}
	for _, phase := range []string{"mesh_protect", "mesh_copy", "mesh_remap"} {
		if byKind[phase] == 0 {
			t.Errorf("no %s events after a productive pass: %v", phase, byKind)
		}
	}
}
