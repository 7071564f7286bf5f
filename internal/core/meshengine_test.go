package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fragmentHeap builds a heap with many sparse detached spans of the
// 16-byte class: spans * 256 allocations with all but every 16th freed,
// then detached. Randomized allocation gives each span a different sparse
// bitmap, so meshable pairs abound. It returns the surviving addresses,
// each pre-written with a recognizable byte.
func fragmentHeap(t testing.TB, g *GlobalHeap, th *ThreadHeap, spans int) map[uint64]byte {
	t.Helper()
	var addrs []uint64
	for i := 0; i < spans*256; i++ {
		a, err := th.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	keep := map[uint64]byte{}
	for i, a := range addrs {
		if i%16 != 0 {
			if err := th.Free(a); err != nil {
				t.Fatal(err)
			}
			continue
		}
		val := byte(i%251 + 1)
		if err := g.OS().Write(a, []byte{val}); err != nil {
			t.Fatal(err)
		}
		keep[a] = val
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	return keep
}

// TestMeshPauseStatsDeterministic pins down the satellite fix: both pause
// timing and rate limiting run off the injected Clock, so with a logical
// clock and a per-pair step cost the pause statistics are exact.
func TestMeshPauseStatsDeterministic(t *testing.T) {
	const cost = time.Millisecond
	// A long period keeps the frozen logical clock from triggering inline
	// passes during setup; the explicit Mesh below bypasses rate limiting.
	g, th := testHeap(t, func(c *Config) { c.MeshStepCost = cost })
	g.SetMeshPeriod(time.Hour)
	buildMeshableSpans(t, g, th)

	if released := g.Mesh(); released != 1 {
		t.Fatalf("released %d spans, want 1", released)
	}
	ms := g.Stats().Mesh
	// One pair at 1 ms of simulated cost, in the one class that claimed a
	// pair: its plan hold takes no clock time and its single fix-up hold
	// (the budget is unbounded) takes exactly 1 ms.
	if ms.LongestPause != cost {
		t.Fatalf("LongestPause = %v, want %v", ms.LongestPause, cost)
	}
	if ms.TotalTime != cost {
		t.Fatalf("TotalTime = %v, want %v", ms.TotalTime, cost)
	}
	want := PauseHistogram{Count: 2, Total: cost, Longest: cost}
	want.Buckets[pauseBucket(0)] = 1
	want.Buckets[pauseBucket(cost)] = 1
	if ms.Pauses != want {
		t.Fatalf("Pauses = %+v, want %+v", ms.Pauses, want)
	}
}

func TestPauseBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{time.Millisecond, 3},
		{20 * time.Millisecond, 5},
		{2 * time.Second, NumPauseBuckets - 1},
	}
	for _, tc := range cases {
		if got := pauseBucket(tc.d); got != tc.want {
			t.Errorf("pauseBucket(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	if PauseBucketBound(0) != time.Microsecond {
		t.Errorf("PauseBucketBound(0) = %v", PauseBucketBound(0))
	}
	if PauseBucketBound(NumPauseBuckets-1) >= 0 {
		t.Error("last bucket must be unbounded")
	}
}

// TestMeshBackgroundBoundedPauses is the core of the acceptance criterion:
// under a meshing-heavy load, the background engine's longest global-lock
// hold stays under the max-pause budget (plus one pair's fix-up), far
// below the duration of an equivalent foreground pass — measured
// deterministically with the injected clock.
func TestMeshBackgroundBoundedPauses(t *testing.T) {
	const (
		cost     = time.Millisecond
		maxPause = 3 * cost
		spans    = 64
	)

	// Foreground reference: identical heap, one full pass under the lock.
	// The hour-long period keeps setup frees from meshing early (the
	// logical clock never reaches it); explicit passes ignore it.
	mutate := func(c *Config) { c.MeshStepCost = cost }
	gf, thf := testHeap(t, mutate)
	gf.SetMeshPeriod(time.Hour)
	fragmentHeap(t, gf, thf, spans)
	fgReleased := gf.Mesh()
	if fgReleased < 8 {
		t.Fatalf("foreground pass released only %d spans; workload not meshing-heavy", fgReleased)
	}
	fullPass := gf.Stats().Mesh.LongestPause
	if fullPass != time.Duration(fgReleased)*cost {
		t.Fatalf("foreground pause %v != %d pairs x %v", fullPass, fgReleased, cost)
	}

	// Background: same workload, incremental engine.
	gb, thb := testHeap(t, mutate)
	gb.SetMeshPeriod(time.Hour)
	keep := fragmentHeap(t, gb, thb, spans)
	gb.SetMaxPause(maxPause)
	bgReleased := gb.MeshBackground()
	if bgReleased != fgReleased {
		t.Fatalf("background released %d spans, foreground %d (same seed, same workload)",
			bgReleased, fgReleased)
	}
	ms := gb.Stats().Mesh
	// Each fix-up chunk stops at the first pair that crosses the budget,
	// so no pause exceeds maxPause + one pair's cost.
	if ms.LongestPause > maxPause+cost {
		t.Fatalf("background pause %v exceeds budget %v + %v", ms.LongestPause, maxPause, cost)
	}
	if ms.LongestPause >= fullPass {
		t.Fatalf("background pause %v not below full-pass duration %v", ms.LongestPause, fullPass)
	}
	// The work was split into several pauses, all recorded.
	if ms.Pauses.Count < uint64(bgReleased)/4 {
		t.Fatalf("only %d pauses recorded for %d pairs", ms.Pauses.Count, bgReleased)
	}
	if ms.Pauses.Longest != ms.LongestPause {
		t.Fatalf("histogram longest %v != LongestPause %v", ms.Pauses.Longest, ms.LongestPause)
	}

	// RSS savings must match the foreground pass (same meshes performed).
	if rf, rb := gf.OS().RSSPages(), gb.OS().RSSPages(); rf != rb {
		t.Fatalf("foreground RSS %d pages != background RSS %d pages", rf, rb)
	}

	// The meshing invariant holds across the concurrent protocol: every
	// surviving address reads its original byte, and frees still resolve.
	for addr, val := range keep {
		b, err := gb.OS().ByteAt(addr)
		if err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if b != val {
			t.Fatalf("content at %#x changed: %d != %d", addr, b, val)
		}
	}
	if err := gb.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	th2 := NewThreadHeap(gb, 99)
	for addr := range keep {
		if err := th2.Free(addr); err != nil {
			t.Fatalf("free %#x after background mesh: %v", addr, err)
		}
	}
	if live := gb.Stats().Live; live != 0 {
		t.Fatalf("live = %d after freeing all", live)
	}
}

// TestBackgroundModeNudgesInsteadOfMeshing verifies the free-path rewiring:
// with background meshing on, a free that reaches the global heap calls
// the notifier and returns without running a pass inline.
func TestBackgroundModeNudgesInsteadOfMeshing(t *testing.T) {
	g, th := testHeap(t, nil)
	var nudges atomic.Int64
	g.SetMeshNotifier(func() { nudges.Add(1) })
	g.SetBackgroundMeshing(true)

	buildMeshableSpans(t, g, th)
	// buildMeshableSpans frees through the thread heap; spans detach on
	// Done. Now a direct global free must nudge, not mesh.
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
	if nudges.Load() == 0 {
		t.Fatal("global free in background mode did not nudge")
	}
	if passes := g.Stats().Mesh.Passes; passes != 0 {
		t.Fatalf("free ran %d inline passes in background mode", passes)
	}

	// Flipping background off restores the inline trigger.
	g.SetBackgroundMeshing(false)
	g.SetMeshNotifier(nil)
	th2 := NewThreadHeap(g, 2)
	b, err := th2.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := th2.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.Free(b); err != nil {
		t.Fatal(err)
	}
	if passes := g.Stats().Mesh.Passes; passes == 0 {
		t.Fatal("inline meshing did not resume after background mode off")
	}
}

// TestMeshBackgroundConcurrentWriters drives the §4.5.2 write-barrier
// protocol at the core layer: writer goroutines hammer live objects while
// meshing passes move their spans out from under them, with the daemon's
// bounded budget and with Mesh's unbounded one (both copy off the shard
// lock). Every write must either land before the copy (and be carried by
// it) or fault, wait out the barrier, and land in the destination span.
func TestMeshBackgroundConcurrentWriters(t *testing.T) {
	for _, pass := range []struct {
		name string
		run  func(g *GlobalHeap) int
	}{
		{"MeshBackground", func(g *GlobalHeap) int {
			g.SetMaxPause(100 * time.Microsecond)
			return g.MeshBackground()
		}},
		{"Mesh", (*GlobalHeap).Mesh},
	} {
		t.Run(pass.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 7
			// Widen each pair's protect→remap window to a realistic copy
			// duration; instant copies would make writer/barrier
			// collisions vanishingly rare.
			cfg.MeshCopyCost = 20 * time.Microsecond
			g := NewGlobalHeap(cfg)
			th := NewThreadHeap(g, 1)
			keep := fragmentHeap(t, g, th, 32)

			addrs := make([]uint64, 0, len(keep))
			for a := range keep {
				addrs = append(addrs, a)
			}
			const workers = 4
			if len(addrs)%workers != 0 {
				t.Fatalf("%d live objects not divisible by %d workers", len(addrs), workers)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errc := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					val := byte(w + 1)
					// Worker w owns addresses at indices ≡ w mod workers, so
					// ownership is disjoint and every read-back must see the
					// worker's own last write — a lost update is a barrier bug.
					for i := w; ; i += workers {
						select {
						case <-stop:
							return
						default:
						}
						a := addrs[i%len(addrs)]
						if err := g.OS().Write(a, []byte{val}); err != nil {
							errc <- err
							return
						}
						b, err := g.OS().ByteAt(a)
						if err != nil {
							errc <- err
							return
						}
						if b != val {
							errc <- fmt.Errorf("write to %#x lost: read %d, want %d", a, b, val)
							return
						}
					}
				}(w)
			}

			// Run passes while the writers hammer; churning fresh fragmented
			// spans between passes keeps meshing candidates flowing.
			for round := 0; round < 8; round++ {
				churn := NewThreadHeap(g, uint64(10+round))
				fragmentHeap(t, g, churn, 8)
				pass.run(g)
			}
			close(stop)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			if err := g.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			st := g.Stats()
			if st.Mesh.SpansMeshed == 0 {
				t.Fatal("no spans meshed during the concurrent run")
			}
			// With windows hundreds of microseconds wide and four writers cycling
			// every live object, some writes must have hit protected spans and
			// taken the §4.5.2 fault path.
			if st.VM.Faults == 0 {
				t.Fatal("no write faults taken: the write barrier never engaged")
			}
		})
	}
}

// BenchmarkMeshBackgroundPass measures one budgeted background pass on a
// freshly fragmented heap — the daemon's unit of work, and the
// counterpart of BenchmarkMeshPass's unbounded Mesh passes.
func BenchmarkMeshBackgroundPass(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Clock = NewLogicalClock()
	g := NewGlobalHeap(cfg)
	g.SetMeshPeriod(time.Hour)
	th := NewThreadHeap(g, 1)
	fragmentHeap(b, g, th, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MeshBackground()
	}
}
