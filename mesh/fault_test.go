package mesh

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/vm"
)

// requireCleanInvariants runs the full heap invariant check through the
// debug.check_invariants control — the same surface an operator would
// poke at a misbehaving process — and fails the test on any violation.
func requireCleanInvariants(t testing.TB, a *Allocator) {
	t.Helper()
	v, err := a.ReadControl("debug.check_invariants")
	if err != nil {
		t.Fatalf("ReadControl(debug.check_invariants): %v", err)
	}
	if s := v.(string); s != "" {
		t.Fatalf("invariant check: %s", s)
	}
}

func readFaultU64(t testing.TB, a *Allocator, key string) uint64 {
	t.Helper()
	v, err := a.ReadControl(key)
	if err != nil {
		t.Fatalf("ReadControl(%q): %v", key, err)
	}
	return v.(uint64)
}

// TestMeshAbortEachPhase injects an abort into each phase of the meshing
// engine — after protect, mid-copy, and after copy but before remap — and
// checks the abort protocol's contract: the heap passes the full
// invariant check, every surviving object keeps its payload AND stays
// writable (sources were re-protected ReadWrite, not left read-only),
// and once the plane is disarmed the same heap meshes successfully.
// Each plan runs on an inline allocator and on a daemon-routed one, whose
// Mesh goes through the daemon's budgeted pass: one engine means one abort
// protocol, so both routes must release the same number of spans.
func TestMeshAbortEachPhase(t *testing.T) {
	routes := []struct {
		name string
		opts []Option
	}{
		{"inline", nil},
		// The frozen logical clock never reaches the hour-long period, so
		// the daemon never meshes on its own; only the explicit Mesh runs.
		{"daemon", []Option{WithBackgroundMeshing(true)}},
	}
	for _, plan := range []string{
		"mesh.protect:count=1",
		"mesh.copy:count=1",
		"mesh.remap:count=1",
	} {
		t.Run(strings.SplitN(plan, ":", 2)[0], func(t *testing.T) {
			released := map[string]int{}
			for _, route := range routes {
				t.Run(route.name, func(t *testing.T) {
					a := New(append([]Option{WithSeed(3), WithClock(NewLogicalClock()),
						WithMeshPeriod(time.Hour), WithFaultPlan(plan)}, route.opts...)...)
					defer a.Close()
					keep := fragmentPooled(t, a, 64)

					released[route.name] = a.Mesh()
					if hits := readFaultU64(t, a, "stats.fault.injected"); hits < 1 {
						t.Fatalf("plan %q never fired (released %d spans)", plan, released[route.name])
					}
					requireCleanInvariants(t, a)

					// Aborted sources must be readable with their old
					// contents and writable again: a stuck ReadOnly
					// protection would fault (here: error) on the write-back.
					for p, val := range keep {
						var b [1]byte
						if err := a.Read(p, b[:]); err != nil {
							t.Fatalf("read %#x after aborted mesh: %v", p, err)
						}
						if b[0] != val {
							t.Fatalf("object %#x corrupted across aborted mesh: %#x != %#x", p, b[0], val)
						}
						if err := a.Write(p, []byte{val}); err != nil {
							t.Fatalf("object %#x not writable after aborted mesh: %v", p, err)
						}
					}

					// Disarm and retry: the abort must not have consumed or
					// wedged the meshing opportunity.
					if err := a.Control("fault.plan", ""); err != nil {
						t.Fatal(err)
					}
					if released := a.Mesh(); released == 0 {
						t.Fatal("no spans released by the post-abort retry pass")
					}
					requireCleanInvariants(t, a)
					for p, val := range keep {
						var b [1]byte
						if err := a.Read(p, b[:]); err != nil {
							t.Fatal(err)
						}
						if b[0] != val {
							t.Fatalf("object %#x corrupted by retry pass: %#x != %#x", p, b[0], val)
						}
					}
				})
			}
			if !t.Failed() && released["inline"] != released["daemon"] {
				t.Fatalf("aborted pass released %d spans inline but %d through the daemon",
					released["inline"], released["daemon"])
			}
		})
	}
}

// TestTransientVMFaultsAreRetried arms every VM-level site in transient
// mode with a budget the bounded retry loop provably absorbs: the
// workload must complete with zero errors surfacing, while the plane
// records that it really did inject.
func TestTransientVMFaultsAreRetried(t *testing.T) {
	a := New(WithSeed(7), WithClock(NewLogicalClock()),
		// count=3 per site against a 4-attempt retry loop: even if every
		// budgeted fault lands inside one call's retries, the final
		// attempt succeeds. (A pure rate-based plan cannot promise this —
		// runs of 4+ consecutive hash hits occur at realistic rates.)
		WithFaultPlan("vm.commit:count=3:mode=transient,vm.map:count=3:mode=transient,vm.protect:count=3:mode=transient"))
	keep := fragmentPooled(t, a, 32)
	a.Mesh() // exercises vm.protect (mesh barrier) and vm.map (dirty reuse)
	for p := range keep {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if hits := readFaultU64(t, a, "stats.fault.injected"); hits < 1 {
		t.Fatal("transient plan never fired")
	}
	requireCleanInvariants(t, a)
}

// TestMeshdPanicRestarts pins the daemon supervision contract: an
// injected panic on the daemon goroutine is recovered, counted in
// stats.meshd.restarts, and followed by a successful background pass —
// the daemon is degraded, never lost.
func TestMeshdPanicRestarts(t *testing.T) {
	a := New(WithSeed(5),
		WithMeshPeriod(time.Millisecond),
		WithBackgroundMeshing(true),
		WithFaultPlan("meshd.panic:count=1"))
	defer a.Close()

	// Fragmented garbage gives the post-restart pass something to release.
	fragmentPooled(t, a, 64)

	deadline := time.Now().Add(10 * time.Second)
	for readFaultU64(t, a, "stats.meshd.restarts") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never restarted after injected panic")
		}
		time.Sleep(time.Millisecond)
	}
	// The restarted incarnation must complete a real pass (the panic
	// budget is exhausted, so nothing blocks it).
	for readFaultU64(t, a, "stats.mesh_passes") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no successful background pass after daemon restart")
		}
		time.Sleep(time.Millisecond)
	}
	requireCleanInvariants(t, a)
}

// TestOOMBackpressure pins the degradation ladder. A fragmented heap is
// clamped to exactly its current resident size; the next span-demanding
// allocation then must succeed by drain→flush→emergency-mesh→retry —
// compaction as the OOM escape hatch, the paper's motivating scenario.
// Without meshing the ladder has nothing to reclaim, so allocating past
// the limit must fail typed.
func TestOOMBackpressure(t *testing.T) {
	a := New(WithSeed(11), WithClock(NewLogicalClock()))
	fragmentPooled(t, a, 64)

	rss, err := a.ReadControl("stats.rss")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Control("os.memory_limit", rss.(int64)); err != nil {
		t.Fatal(err)
	}

	// The emergency mesh pass compacts the fragmented spans and the retry
	// succeeds.
	p, err := a.Malloc(MaxSmallSize * 4)
	if err != nil {
		t.Fatalf("Malloc with backpressure failed: %v", err)
	}
	if got := readFaultU64(t, a, "stats.oom.recoveries"); got < 1 {
		t.Fatalf("stats.oom.recoveries = %d after a recovered limit hit", got)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	requireCleanInvariants(t, a)

	// No meshing: the limit hit surfaces as ErrOutOfMemory wrapping the
	// VM's error.
	b := New(WithSeed(11), WithClock(NewLogicalClock()), WithMeshing(false))
	if err := b.Control("os.memory_limit", int64(1<<20)); err != nil {
		t.Fatal(err)
	}
	var oom error
	for i := 0; oom == nil; i++ {
		if i == 1<<10 {
			t.Fatal("no Malloc failed under a 1 MiB memory limit")
		}
		_, oom = b.Malloc(MaxSmallSize * 4)
	}
	if !errors.Is(oom, ErrOutOfMemory) || !errors.Is(oom, vm.ErrOutOfMemory) {
		t.Fatalf("Malloc past the limit = %v, want ErrOutOfMemory wrapping vm.ErrOutOfMemory", oom)
	}
	requireCleanInvariants(t, b)
}

// TestCloseRacesWithTraffic hammers Close from multiple goroutines while
// pooled allocation traffic is in flight — run under -race, this pins
// the documented claim that Close is idempotent and safe to race with
// Malloc/Free.
func TestCloseRacesWithTraffic(t *testing.T) {
	a := New(WithSeed(13), WithBackgroundMeshing(true))

	const workers = 4
	var wg sync.WaitGroup
	var closed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				p, err := a.Malloc(16 + (i%4)*64)
				if err != nil {
					t.Errorf("Malloc during Close race: %v", err)
					return
				}
				if err := a.Free(p); err != nil {
					t.Errorf("Free during Close race: %v", err)
					return
				}
				if i == 100+w*20 {
					if err := a.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
					closed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	if !closed.Load() {
		t.Fatal("no goroutine reached its Close call")
	}
	if err := a.Close(); err != nil { // idempotent after the racing closes
		t.Fatal(err)
	}
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatalf("allocator unusable after racing Close: %v", err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	requireCleanInvariants(t, a)
}

// chaosSeeds returns the seed set for the chaos suite: 1-4 by default
// (the CI acceptance floor), extendable via MESH_CHAOS_SEEDS=5,6,7 for
// longer soaks.
func chaosSeeds(t *testing.T) []uint64 {
	seeds := []uint64{1, 2, 3, 4}
	if env := os.Getenv("MESH_CHAOS_SEEDS"); env != "" {
		seeds = seeds[:0]
		for _, f := range strings.Split(env, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("MESH_CHAOS_SEEDS: %v", err)
			}
			seeds = append(seeds, n)
		}
	}
	return seeds
}

// chaosPlan arms every injection site at once: transient VM failures the
// retry loop must absorb, aborts in all three mesh phases, remote-free
// segment failures forcing the locked fallback, daemon stalls, and two
// daemon panics to exercise the supervisor mid-workload.
const chaosPlan = "vm.commit:rate=37:mode=transient," +
	"vm.map:rate=31:mode=transient," +
	"vm.protect:rate=11:mode=transient," +
	"mesh.protect:rate=7," +
	"mesh.copy:rate=5," +
	"mesh.remap:rate=5," +
	"remote.segment:rate=3," +
	"meshd.stall:rate=2," +
	"meshd.panic:count=2"

// TestChaosStress is the randomized fault-schedule suite: concurrent
// mixed-size churn with cross-thread frees, background meshing, and the
// full chaos plan live, across ≥ 4 deterministic seeds. After quiescence
// it demands exactness, not survival: every queued remote free drained,
// allocs == frees, zero invariant violations.
func TestChaosStress(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a := New(WithSeed(seed),
				WithMeshPeriod(time.Millisecond),
				WithBackgroundMeshing(true),
				WithFaultPlan(chaosPlan))
			defer a.Close()

			const workers = 4
			const opsPerWorker = 2000
			sizes := []int{16, 16, 48, 256, 1024, MaxSmallSize, MaxSmallSize * 2}

			// Cross-thread free traffic: workers push a share of their
			// pointers to the next worker, exercising the remote-free
			// queues (and the injected segment-failure fallback).
			relay := make([]chan Ptr, workers)
			for i := range relay {
				relay[i] = make(chan Ptr, opsPerWorker)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer close(relay[(w+1)%workers])
					rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(w)))
					th := a.NewThread()
					defer th.Close()
					var local []Ptr
					for i := 0; i < opsPerWorker; i++ {
						p, err := th.Malloc(sizes[rng.Intn(len(sizes))])
						if err != nil {
							// An unlucky schedule can exhaust the transient
							// retry budget (4+ consecutive hash hits at one
							// site); grace means the error is *typed*, the
							// heap stays sound, and the workload continues.
							if errors.Is(err, faultinject.ErrInjected) || errors.Is(err, ErrOutOfMemory) {
								continue
							}
							t.Errorf("worker %d Malloc: %v", w, err)
							return
						}
						switch rng.Intn(3) {
						case 0: // free locally, immediately
							if err := th.Free(p); err != nil {
								t.Errorf("worker %d Free: %v", w, err)
								return
							}
						case 1: // hand to the neighbour (remote free)
							relay[(w+1)%workers] <- p
						default: // hold, free later
							local = append(local, p)
						}
						// Drain some of what the neighbour handed us.
						if i%8 == 0 {
							for {
								select {
								case q, ok := <-relay[w]:
									if !ok {
										break
									}
									if err := th.Free(q); err != nil {
										t.Errorf("worker %d remote Free: %v", w, err)
										return
									}
									continue
								default:
								}
								break
							}
						}
					}
					for _, p := range local {
						if err := th.Free(p); err != nil {
							t.Errorf("worker %d drain Free: %v", w, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			// Settle the relays: anything still in flight is freed through
			// the pooled surface.
			for _, ch := range relay {
				for p := range ch {
					if err := a.Free(p); err != nil {
						t.Fatalf("relay drain Free: %v", err)
					}
				}
			}
			if t.Failed() {
				return
			}

			// Quiesce: stop the daemon (waits out in-flight passes), flush
			// pooled heaps so their queues settle, disarm the plane, and
			// run one clean pass.
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := a.Control("fault.plan", ""); err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
			a.Mesh()

			// Exactness at quiescence.
			if hits := readFaultU64(t, a, "stats.fault.injected"); hits == 0 {
				t.Error("chaos run injected zero faults; plan dead")
			}
			allocs := readFaultU64(t, a, "stats.allocs")
			frees := readFaultU64(t, a, "stats.frees")
			if allocs != frees {
				t.Errorf("alloc/free accounting broken: %d allocs, %d frees", allocs, frees)
			}
			// Skipped ops (surfaced typed faults) are rare; the workload
			// must still be overwhelmingly real traffic.
			if allocs < workers*opsPerWorker/2 {
				t.Errorf("allocs = %d, want >= %d", allocs, workers*opsPerWorker/2)
			}
			queued := readFaultU64(t, a, "stats.remote.queued")
			drained := readFaultU64(t, a, "stats.remote.drained")
			if queued != drained {
				t.Errorf("remote frees lost: queued %d, drained %d", queued, drained)
			}
			if live, _ := a.ReadControl("stats.live"); live.(int64) != 0 {
				t.Errorf("stats.live = %d after freeing everything", live)
			}
			requireCleanInvariants(t, a)
		})
	}
}

// BenchmarkMallocFreeFaultPlaneDisabled measures the thread-local
// Malloc/Free fast path with the fault plane at its production setting
// (present, disabled): the acceptance bar is that injection readiness
// costs one atomic load, invisible next to the allocation itself. Compare
// it with BenchmarkMallocFreeFaultPlaneArmedElsewhere on one machine.
func BenchmarkMallocFreeFaultPlaneDisabled(b *testing.B) {
	a := New(WithSeed(1), WithMeshing(false))
	th := a.NewThread()
	defer th.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := th.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMallocFreeFaultPlaneArmedElsewhere arms the plane — but only
// at a daemon site the fast path never evaluates. The delta against the
// disabled benchmark is the cost of the enabled check alone.
func BenchmarkMallocFreeFaultPlaneArmedElsewhere(b *testing.B) {
	a := New(WithSeed(1), WithMeshing(false), WithFaultPlan("meshd.stall:rate=2"))
	th := a.NewThread()
	defer th.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := th.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}
