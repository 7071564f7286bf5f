package meshd

import (
	"testing"
	"time"

	"repro/internal/core"
)

// newFragmentedHeap builds a heap with spans*256 16-byte allocations, all
// but every 16th freed and every span detached — plentiful meshing
// candidates. The hour-long mesh period keeps the logical clock from
// triggering anything on its own; tests advance the clock or force passes.
func newFragmentedHeap(t *testing.T, spans int) (*core.GlobalHeap, *core.LogicalClock) {
	t.Helper()
	clk := core.NewLogicalClock()
	cfg := core.DefaultConfig()
	cfg.Clock = clk
	g := core.NewGlobalHeap(cfg)
	g.SetMeshPeriod(time.Hour)
	th := core.NewThreadHeap(g, 1)
	var addrs []uint64
	for i := 0; i < spans*256; i++ {
		a, err := th.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for i, a := range addrs {
		if i%16 == 0 {
			continue
		}
		if err := th.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	return g, clk
}

func TestStartStopIdempotent(t *testing.T) {
	g, _ := newFragmentedHeap(t, 2)
	d := New(g, Config{})
	if d.Running() {
		t.Fatal("daemon running before Start")
	}
	d.Start()
	d.Start()
	if !d.Running() {
		t.Fatal("daemon not running after Start")
	}
	if !g.BackgroundMeshing() {
		t.Fatal("heap not in background mode while daemon runs")
	}
	d.Stop()
	d.Stop()
	if d.Running() {
		t.Fatal("daemon running after Stop")
	}
	if g.BackgroundMeshing() {
		t.Fatal("heap still in background mode after Stop")
	}
	// Restart works.
	d.Start()
	defer d.Stop()
	if !d.Running() {
		t.Fatal("daemon did not restart")
	}
}

func TestRunPassReleasesSpans(t *testing.T) {
	g, _ := newFragmentedHeap(t, 32)
	d := New(g, Config{})
	before := g.OS().RSSPages()
	released := d.RunPass()
	if released == 0 {
		t.Fatal("RunPass released nothing on a fragmented heap")
	}
	if after := g.OS().RSSPages(); after >= before {
		t.Fatalf("RSS did not drop: %d -> %d pages", before, after)
	}
	if st := d.Stats(); st.SpansReleased != uint64(released) {
		t.Fatalf("Stats.SpansReleased = %d, want %d", st.SpansReleased, released)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestNudgeRunsDuePass wires the full trigger path: the heap's free-path
// notifier nudges the daemon, and because the rate limiter says a pass is
// due, the daemon meshes — off the freeing goroutine.
func TestNudgeRunsDuePass(t *testing.T) {
	g, clk := newFragmentedHeap(t, 32)
	d := New(g, Config{PollInterval: time.Hour}) // timer out of the picture
	d.Start()
	defer d.Stop()

	// Make the pass due, then produce a free that reaches the global heap.
	clk.Advance(2 * time.Hour)
	th := core.NewThreadHeap(g, 2)
	a, err := th.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.Free(a); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "nudge-triggered pass", func() bool {
		return d.Stats().NudgePasses > 0 && d.Stats().SpansReleased > 0
	})
	if passes := g.Stats().Mesh.Passes; passes == 0 {
		t.Fatal("no meshing pass ran")
	}
}

// TestMemoryPressureForcesPass: with RSS above the pressure threshold of a
// configured limit, a wake-up meshes even though the rate limiter says the
// pass is not due.
func TestMemoryPressureForcesPass(t *testing.T) {
	g, _ := newFragmentedHeap(t, 32)
	if g.MeshDue() {
		t.Fatal("precondition: pass must not be due (frozen clock, long period)")
	}
	// Set the limit at current RSS: 100% of limit >= the 90% trigger.
	g.OS().SetMemoryLimit(g.OS().RSSPages())

	d := New(g, Config{PollInterval: time.Hour})
	d.Start()
	defer d.Stop()
	d.Nudge()

	waitFor(t, "pressure-forced pass", func() bool {
		return d.Stats().PressurePasses > 0 && d.Stats().SpansReleased > 0
	})
}

// TestTimerRunsDuePass: the period timer alone picks up a due pass with no
// nudges at all.
func TestTimerRunsDuePass(t *testing.T) {
	g, clk := newFragmentedHeap(t, 32)
	clk.Advance(2 * time.Hour) // pass due immediately
	d := New(g, Config{PollInterval: 2 * time.Millisecond})
	d.Start()
	defer d.Stop()
	waitFor(t, "timer-triggered pass", func() bool {
		return d.Stats().TimerPasses > 0 && d.Stats().SpansReleased > 0
	})
}

// TestStopRestoresInlineMeshing: after Stop, frees mesh inline again.
func TestStopRestoresInlineMeshing(t *testing.T) {
	g, clk := newFragmentedHeap(t, 4)
	d := New(g, Config{PollInterval: time.Hour})
	d.Start()
	d.Stop()

	clk.Advance(2 * time.Hour)
	th := core.NewThreadHeap(g, 2)
	a, err := th.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.Free(a); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Mesh.Passes == 0 {
		t.Fatal("free did not mesh inline after daemon stopped")
	}
	if st := d.Stats(); st.NudgePasses != 0 {
		t.Fatalf("stopped daemon ran %d nudge passes", st.NudgePasses)
	}
}
