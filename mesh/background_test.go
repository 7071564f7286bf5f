package mesh

import (
	"sync"
	"testing"
	"time"
)

// withMeshStepCost charges an injected AdvancingClock (e.g. LogicalClock)
// the given simulated cost per meshed pair, making pass durations — and
// the pause histogram — deterministic in simulated-time runs.
func withMeshStepCost(d time.Duration) Option {
	return func(s *settings) { s.cfg.MeshStepCost = d }
}

// fragmentPooled builds a fragmented heap through the pooled API: spans *
// 256 16-byte allocations with all but every 16th freed, then Flush so the
// spans detach and become meshing candidates. Returns the survivors with
// their written payloads.
func fragmentPooled(t testing.TB, a *Allocator, spans int) map[Ptr]byte {
	t.Helper()
	var ptrs []Ptr
	for i := 0; i < spans*256; i++ {
		p, err := a.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	keep := map[Ptr]byte{}
	for i, p := range ptrs {
		if i%16 != 0 {
			if err := a.Free(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		val := byte(i%251 + 1)
		if err := a.Write(p, []byte{val}); err != nil {
			t.Fatal(err)
		}
		keep[p] = val
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	return keep
}

func TestBackgroundLifecycle(t *testing.T) {
	a := New(WithSeed(1), WithClock(NewLogicalClock()), WithBackgroundMeshing(true))
	if on, _ := a.ReadControl("mesh.background"); on != true {
		t.Fatal("daemon not running after WithBackgroundMeshing(true)")
	}
	// Runtime toggle through the control surface.
	if err := a.Control("mesh.background", false); err != nil {
		t.Fatal(err)
	}
	if on, _ := a.ReadControl("mesh.background"); on != false {
		t.Fatal("daemon still running after mesh.background=false")
	}
	if err := a.Control("mesh.background", true); err != nil {
		t.Fatal(err)
	}

	// Close stops the daemon; the allocator stays fully usable.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if on, _ := a.ReadControl("mesh.background"); on != false {
		t.Fatal("daemon running after Close")
	}
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatalf("allocator unusable after Close: %v", err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	a.Mesh() // foreground pass still works
}

// TestBackgroundPauseBoundedBelowFullPass is the PR's acceptance
// criterion, measured deterministically with the injected clock: under a
// meshing-heavy workload, no allocation or free can stall for a full
// meshing pass, because the background engine never holds the global lock
// longer than mesh.max_pause (plus one pair's fix-up) — while releasing
// the same spans a foreground pass would.
func TestBackgroundPauseBoundedBelowFullPass(t *testing.T) {
	const (
		cost     = time.Millisecond
		maxPause = 3 * cost
		spans    = 64
	)
	opts := func(extra ...Option) []Option {
		return append([]Option{
			WithSeed(5),
			WithClock(NewLogicalClock()),
			withMeshStepCost(cost),
			WithMeshPeriod(time.Hour), // only explicit passes run
		}, extra...)
	}

	// Foreground: the whole pass is one global-lock hold.
	fg := New(opts()...)
	fragmentPooled(t, fg, spans)
	fgReleased := fg.Mesh()
	if fgReleased < 8 {
		t.Fatalf("foreground released %d spans; workload not meshing-heavy", fgReleased)
	}
	fullPass := fg.Stats().Mesh.LongestPause
	if fullPass != time.Duration(fgReleased)*cost {
		t.Fatalf("full pass %v != %d pairs x %v", fullPass, fgReleased, cost)
	}

	// Background: same seed, same workload, incremental engine.
	bg := New(opts(WithBackgroundMeshing(true), WithMaxMeshPause(maxPause))...)
	defer bg.Close()
	keep := fragmentPooled(t, bg, spans)
	bgReleased := bg.Mesh() // routes through the incremental engine
	if bgReleased != fgReleased {
		t.Fatalf("background released %d spans, foreground %d", bgReleased, fgReleased)
	}

	hist, err := bg.ReadControl("stats.mesh.pauses")
	if err != nil {
		t.Fatal(err)
	}
	pauses := hist.(PauseHistogram)
	if pauses.Count == 0 {
		t.Fatal("no pauses recorded")
	}
	if pauses.Longest > maxPause+cost {
		t.Fatalf("pause %v exceeds budget %v + one pair", pauses.Longest, maxPause)
	}
	if pauses.Longest >= fullPass {
		t.Fatalf("max stall %v not below full-pass duration %v", pauses.Longest, fullPass)
	}

	// RSS savings match foreground within the 10% acceptance bound (they
	// are identical here: same seed, same pairs).
	fgRSS, bgRSS := fg.RSS(), bg.RSS()
	if diff := fgRSS - bgRSS; diff < 0 {
		diff = -diff
	} else if float64(diff) > 0.10*float64(fgRSS) {
		t.Fatalf("background RSS %d vs foreground %d: savings differ by >10%%", bgRSS, fgRSS)
	}

	// Contents survive the concurrent protocol.
	for p, val := range keep {
		b := make([]byte, 1)
		if err := bg.Read(p, b); err != nil {
			t.Fatal(err)
		}
		if b[0] != val {
			t.Fatalf("content at %#x changed: %d != %d", p, b[0], val)
		}
	}
	if err := bg.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestWritersSurviveBackgroundMeshing is the §4.5.2 satellite: writer
// goroutines hammer their own objects while the daemon continuously meshes
// the spans under them (frees nudge it; mesh period zero makes every nudge
// due). Run with -race this exercises the protect→copy→remap protocol
// against real concurrent writes; every read-back must see the goroutine's
// own last write.
func TestWritersSurviveBackgroundMeshing(t *testing.T) {
	a := New(WithSeed(23),
		WithBackgroundMeshing(true),
		WithMeshing(false), // held off until the writers are hammering
		WithMeshPeriod(0),  // every nudge is due
		WithMaxMeshPause(50*time.Microsecond),
		WithMinMeshSavings(1)) // never disarm
	defer a.Close()

	// Fragment serially first: a single goroutine fills spans densely and
	// then keeps 1 object in 16, so the surviving spans are sparse with
	// randomized offsets — provably meshable. (Concurrent fragmentation
	// would let refills recycle the sparse spans back into dense ones.)
	// The survivors are then handed to the writers, so the objects being
	// hammered live exactly in the spans being meshed.
	keep := fragmentPooled(t, a, 24)
	addrs := make([]Ptr, 0, len(keep))
	for p := range keep {
		addrs = append(addrs, p)
	}

	const writers = 6
	const rounds = 150
	if len(addrs)%writers != 0 {
		t.Fatalf("%d survivors not divisible by %d writers", len(addrs), writers)
	}
	var writerWG, churnWG sync.WaitGroup
	errc := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			// Worker w owns addresses at indices ≡ w mod writers: disjoint
			// ownership, so every read-back must see its own last write.
			mine := make([]Ptr, 0, len(addrs)/writers)
			for i := w; i < len(addrs); i += writers {
				mine = append(mine, addrs[i])
			}
			buf := make([]byte, 1)
			for r := 0; r < rounds; r++ {
				val := byte((w*rounds+r)%250 + 1)
				for _, p := range mine {
					if err := a.Write(p, []byte{val}); err != nil {
						errc <- err
						return
					}
				}
				for _, p := range mine {
					if err := a.Read(p, buf); err != nil {
						errc <- err
						return
					}
					if buf[0] != val {
						errc <- errLost{p, buf[0], val}
						return
					}
				}
				if r%25 == 24 {
					// Rotate the working set: free everything and carve a
					// fresh sparse region, so this writer's spans keep
					// re-entering the meshable population — and its writes
					// keep racing new protect windows — all run long.
					if err := a.FreeBatch(mine); err != nil {
						errc <- err
						return
					}
					count := len(mine)
					mine = mine[:0]
					fresh := make([]Ptr, 0, 16*count)
					for i := 0; i < 16*count; i++ {
						p, err := a.Malloc(16)
						if err != nil {
							errc <- err
							return
						}
						fresh = append(fresh, p)
					}
					for i, p := range fresh {
						if i%16 == 0 {
							mine = append(mine, p)
							continue
						}
						if err := a.Free(p); err != nil {
							errc <- err
							return
						}
					}
				}
			}
			if err := a.FreeBatch(mine); err != nil {
				errc <- err
			}
		}(w)
	}

	// Only now, with the writers live, turn the engine on: every mesh of
	// their spans races their writes through the §4.5.2 barrier.
	if err := a.Control("mesh.enabled", true); err != nil {
		t.Fatal(err)
	}

	// Churner: generates global frees so the daemon keeps getting nudged,
	// plus forced incremental passes so meshing activity is certain even
	// on a starved scheduler.
	done := make(chan struct{})
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			var ptrs []Ptr
			for j := 0; j < 64; j++ {
				p, err := a.Malloc(16)
				if err != nil {
					errc <- err
					return
				}
				ptrs = append(ptrs, p)
			}
			if err := a.Flush(); err != nil {
				errc <- err
				return
			}
			if err := a.FreeBatch(ptrs); err != nil {
				errc <- err
				return
			}
			if i%4 == 0 {
				a.Mesh() // incremental pass via the daemon engine
			}
		}
	}()

	// The churner runs for the writers' whole lifetime, then stops.
	writerWG.Wait()
	close(done)
	churnWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Mesh.SpansMeshed == 0 {
		t.Fatal("daemon meshed nothing during the run")
	}
	t.Logf("spans meshed: %d, write faults: %d, passes: %d",
		st.Mesh.SpansMeshed, st.VM.Faults, st.Mesh.Passes)
	if st.Live != 0 {
		t.Fatalf("live = %d after all frees", st.Live)
	}
}

type errLost struct {
	p    Ptr
	got  byte
	want byte
}

func (e errLost) Error() string {
	return "lost update after background mesh"
}
