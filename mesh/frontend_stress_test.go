package mesh

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The front end's stripe hand-off (swap/CAS on per-stripe slots) and the
// magazine fill/flush protocol are new lock-free hand-off edges on the
// hottest path — exactly the weak-memory-sensitive code the POWER
// robustness literature says needs litmus-style validation. These tests
// run the edges against each other under -race: stripe migration and
// collision, magazine flushes racing background meshing and heap
// retirement, and runtime reconfiguration storms, each ending with the
// exact-accounting identities only a lost hand-off can break.

// TestFrontendStripeMigrationStress drives Allocator-level scalar traffic
// from many goroutines so fronts bounce between stripes (every Acquire
// empties a slot; Gosched interleaves goroutines onto contended stripes
// and through the pool fallback), while a share of pointers crosses
// goroutines so magazine flushes push remote frees. Contents carried
// across the hand-off prove no write was lost.
func TestFrontendStripeMigrationStress(t *testing.T) {
	a := New(WithSeed(41),
		WithBackgroundMeshing(true),
		WithMeshPeriod(0),
		WithMaxMeshPause(50*time.Microsecond),
		WithMinMeshSavings(1))
	defer a.Close()

	const (
		workers = 12
		rounds  = 400
	)
	sizes := []int{16, 64, 64, 256, 1024}
	relay := make([]chan Ptr, workers)
	for i := range relay {
		relay[i] = make(chan Ptr, rounds+1)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer close(relay[(w+1)%workers])
			val := byte(w + 1)
			buf := make([]byte, 1)
			for r := 0; r < rounds; r++ {
				p, err := a.Malloc(sizes[r%len(sizes)])
				if err != nil {
					t.Errorf("worker %d Malloc: %v", w, err)
					return
				}
				if err := a.Write(p, []byte{val}); err != nil {
					t.Errorf("worker %d Write: %v", w, err)
					return
				}
				if r%3 == 0 {
					// Cross-goroutine hand-off: the neighbour's free is
					// remote to the owning heap and exercises the
					// magazine path's deferred remote-free flush.
					relay[(w+1)%workers] <- p
				} else {
					if err := a.Read(p, buf); err != nil {
						t.Errorf("worker %d Read: %v", w, err)
						return
					}
					if buf[0] != val {
						t.Errorf("worker %d: wrote %d, read back %d", w, val, buf[0])
						return
					}
					if err := a.Free(p); err != nil {
						t.Errorf("worker %d Free: %v", w, err)
						return
					}
				}
				if r%16 == 0 {
					// Drain the neighbour's hand-offs and yield, shuffling
					// goroutines across stripes mid-sequence.
					for {
						select {
						case q, ok := <-relay[w]:
							if !ok {
								break
							}
							if err := a.Free(q); err != nil {
								t.Errorf("worker %d remote Free: %v", w, err)
								return
							}
							continue
						default:
						}
						break
					}
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
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
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	assertFrontendQuiescence(t, a)
}

// TestFrontendFlushRacesMeshingAndRetirement storms the reconfiguration
// surface while scalar traffic runs: Flush retires fronts mid-flight,
// harden.enabled toggles move scalar calls on and off the magazines, and
// foreground meshing passes race the flushes' batch frees. Every
// combination must land on the same closed books.
func TestFrontendFlushRacesMeshingAndRetirement(t *testing.T) {
	a := New(WithSeed(43))
	defer a.Close()

	const (
		workers = 8
		rounds  = 300
	)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				if err := a.Flush(); err != nil {
					t.Errorf("racing Flush: %v", err)
					return
				}
			case 1:
				if err := a.Control("harden.enabled", i/3%2 == 0); err != nil {
					t.Errorf("racing hardening toggle: %v", err)
					return
				}
			default:
				a.Mesh()
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var held []Ptr
			for r := 0; r < rounds; r++ {
				p, err := a.Malloc(16 << (rng.Intn(4) * 2))
				if err != nil {
					t.Errorf("worker %d Malloc: %v", w, err)
					return
				}
				held = append(held, p)
				if len(held) > 24 {
					idx := rng.Intn(len(held))
					q := held[idx]
					held[idx] = held[len(held)-1]
					held = held[:len(held)-1]
					if err := a.Free(q); err != nil {
						t.Errorf("worker %d Free: %v", w, err)
						return
					}
				}
			}
			for _, p := range held {
				if err := a.Free(p); err != nil {
					t.Errorf("worker %d drain Free: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if t.Failed() {
		return
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	assertFrontendQuiescence(t, a)
}

// TestFrontendChaosSeeds replays the migration workload shape across
// seeds: randomized sizes, hold sets, and hand-off patterns per seed,
// with background meshing underneath, each run asserting the quiescence
// identities. Override seeds with MESH_CHAOS_SEEDS.
func TestFrontendChaosSeeds(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a := New(WithSeed(seed),
				WithBackgroundMeshing(true),
				WithMeshPeriod(time.Millisecond))
			defer a.Close()

			const workers = 6
			relay := make([]chan Ptr, workers)
			for i := range relay {
				relay[i] = make(chan Ptr, 2048)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer close(relay[(w+1)%workers])
					rng := rand.New(rand.NewSource(int64(seed)*100 + int64(w)))
					sizes := []int{16, 48, 64, 256, 1024, MaxSmallSize}
					var held []Ptr
					for r := 0; r < 1500; r++ {
						p, err := a.Malloc(sizes[rng.Intn(len(sizes))])
						if err != nil {
							t.Errorf("worker %d Malloc: %v", w, err)
							return
						}
						switch rng.Intn(3) {
						case 0:
							if err := a.Free(p); err != nil {
								t.Errorf("worker %d Free: %v", w, err)
								return
							}
						case 1:
							relay[(w+1)%workers] <- p
						default:
							held = append(held, p)
						}
						if r%8 == 0 {
							for {
								select {
								case q, ok := <-relay[w]:
									if !ok {
										break
									}
									if err := a.Free(q); err != nil {
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
					for _, p := range held {
						if err := a.Free(p); err != nil {
							t.Errorf("worker %d drain Free: %v", w, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
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
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
			assertFrontendQuiescence(t, a)
		})
	}
}

// assertFrontendQuiescence checks the exact-accounting identities every
// stress run must land on: allocs == frees, queued == drained, live == 0,
// no cached objects, and clean heap invariants.
func assertFrontendQuiescence(t *testing.T, a *Allocator) {
	t.Helper()
	st := a.Stats()
	if st.Allocs != st.Frees {
		t.Errorf("alloc/free accounting broken: %d allocs, %d frees", st.Allocs, st.Frees)
	}
	if st.Live != 0 {
		t.Errorf("stats.live = %d after freeing everything", st.Live)
	}
	queued := readFrontU64(t, a, "stats.remote.queued")
	drained := readFrontU64(t, a, "stats.remote.drained")
	if queued != drained {
		t.Errorf("remote frees lost: queued %d, drained %d", queued, drained)
	}
	if cached, _ := a.ReadControl("stats.frontend.cached_objects"); cached.(int64) != 0 {
		t.Errorf("stats.frontend.cached_objects = %d at quiescence", cached)
	}
	requireCleanInvariants(t, a)
}
