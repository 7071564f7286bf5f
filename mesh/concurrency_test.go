package mesh

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSharedAllocator is the headline concurrency stress test:
// 12 goroutines hammer one shared Allocator with every kind of operation —
// scalar and batch malloc/free, reads and writes, forced meshing, stats,
// control reads and writes — with zero external synchronization. Run under
// -race this exercises the pooled-heap hand-off, the remote-free path, the
// meshing write barrier, and the snapshot paths against each other.
func TestConcurrentSharedAllocator(t *testing.T) {
	a := New(WithSeed(11))
	const (
		workers = 12
		rounds  = 300
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var live []Ptr
			buf := []byte{byte(w + 1)}
			for i := 0; i < rounds; i++ {
				switch i % 6 {
				case 0: // scalar malloc + write
					p, err := a.Malloc(16 + (i%8)*32)
					if err != nil {
						errc <- err
						return
					}
					if err := a.Write(p, buf); err != nil {
						errc <- err
						return
					}
					live = append(live, p)
				case 1: // batch malloc
					sizes := []int{16, 64, 256, 1024}
					ptrs, err := a.MallocBatch(sizes)
					if err != nil {
						errc <- err
						return
					}
					live = append(live, ptrs...)
				case 2: // scalar free of the oldest object
					if len(live) > 0 {
						if err := a.Free(live[0]); err != nil {
							errc <- err
							return
						}
						live = live[1:]
					}
				case 3: // batch free of half the live set
					if n := len(live) / 2; n > 0 {
						if err := a.FreeBatch(live[:n]); err != nil {
							errc <- err
							return
						}
						live = live[n:]
					}
				case 4: // read back + snapshots
					if len(live) > 0 {
						rb := make([]byte, 1)
						if err := a.Read(live[len(live)-1], rb); err != nil {
							errc <- err
							return
						}
					}
					_ = a.Stats()
					_ = a.RSS()
					_ = a.ClassStats()
				case 5: // meshing and runtime controls
					if w == 0 {
						a.Mesh()
					}
					if _, err := a.ReadControl("stats.live"); err != nil {
						errc <- err
						return
					}
					if err := a.Control("mesh.period", 50*time.Millisecond); err != nil {
						errc <- err
						return
					}
				}
			}
			if err := a.FreeBatch(live); err != nil {
				errc <- err
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesce: return pooled heaps' spans to the global heap and verify
	// every structural invariant, including the live-byte census.
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	requireCleanInvariants(t, a)
	st := a.Stats()
	if st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d after all workers freed everything", st.Allocs, st.Frees)
	}
	if st.Live != 0 {
		t.Fatalf("live %d after all frees", st.Live)
	}
	if st.InvalidFree != 0 {
		t.Fatalf("%d invalid frees recorded", st.InvalidFree)
	}
}

// TestConcurrentMixedThreadsAndPool mixes explicit Threads (the pinned
// fast path) with pooled Allocator calls, including goroutines freeing
// objects allocated by other goroutines' Threads — the cross-thread free
// path of §4.4.4.
func TestConcurrentMixedThreadsAndPool(t *testing.T) {
	a := New(WithSeed(13))
	const workers = 8
	ptrs := make(chan Ptr, workers*64)
	var wg sync.WaitGroup
	errc := make(chan error, 2*workers)

	// Half the workers allocate on explicit Threads and publish pointers.
	for w := 0; w < workers/2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := a.NewThread()
			for i := 0; i < 128; i++ {
				p, err := th.Malloc(32)
				if err != nil {
					errc <- err
					return
				}
				ptrs <- p
			}
			if err := th.Close(); err != nil {
				errc <- err
			}
		}(w)
	}
	// The other half free whatever arrives through the pooled API.
	var freed sync.WaitGroup
	for w := 0; w < workers/2; w++ {
		freed.Add(1)
		go func() {
			defer freed.Done()
			for p := range ptrs {
				if err := a.Free(p); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(ptrs)
	freed.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	requireCleanInvariants(t, a)
	if st := a.Stats(); st.Live != 0 || st.Allocs != st.Frees {
		t.Fatalf("stats not balanced: %+v", st)
	}
}

// TestPoolReusesHeaps checks that sequential use recycles one heap
// instead of growing the population: through the front end the heap
// lives on a stripe (one pool borrow ever, for the cold start), and the
// pool's overflow list hands a returned heap straight back out.
func TestPoolReusesHeaps(t *testing.T) {
	run := func(t *testing.T, a *Allocator) {
		t.Helper()
		for i := 0; i < 100; i++ {
			p, err := a.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		created, err := a.ReadControl("pool.created")
		if err != nil {
			t.Fatal(err)
		}
		if created.(int) != 1 {
			t.Fatalf("sequential use created %d heaps, want 1", created)
		}
	}
	t.Run("frontend", func(t *testing.T) {
		a := New(WithSeed(3))
		run(t, a)
		// The heap is parked on the caller's stripe, not in the pool, and
		// only the cold start paid a pool borrow.
		if idle, _ := a.ReadControl("pool.idle"); idle.(int) != 0 {
			t.Fatalf("pool.idle = %d, want 0 (heap cached on a stripe)", idle)
		}
		if borrows, _ := a.ReadControl("stats.pool.borrows"); borrows.(uint64) != 1 {
			t.Fatalf("stats.pool.borrows = %d, want 1 (cold start only)", borrows)
		}
		hits, _ := a.ReadControl("stats.frontend.hits")
		misses, _ := a.ReadControl("stats.frontend.misses")
		if hits.(uint64)+misses.(uint64) != 200 || misses.(uint64) != 1 {
			t.Fatalf("stripe traffic hits=%d misses=%d, want 199/1", hits, misses)
		}
		// Flush moves the heap back through the pool and relinquishes it.
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		if idle, _ := a.ReadControl("pool.idle"); idle.(int) != 0 {
			t.Fatalf("pool.idle = %d after Flush, want 0", idle)
		}
	})
	t.Run("overflow-list", func(t *testing.T) {
		// Drive the pool directly, as retirements on a full stripe array
		// and the cold path do: each return parks on the Treiber list and
		// the next borrow pops the same heap.
		a := New(WithSeed(3))
		first := a.pool.acquire()
		a.pool.release(first)
		for i := 0; i < 100; i++ {
			th := a.pool.acquire()
			if th != first {
				t.Fatalf("borrow %d got a different heap than the one parked", i)
			}
			p, err := th.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
			a.pool.release(th)
		}
		if created, _ := a.ReadControl("pool.created"); created.(int) != 1 {
			t.Fatalf("pool.created = %d, want 1", created)
		}
		if idle, _ := a.ReadControl("pool.idle"); idle.(int) != 1 {
			t.Fatalf("pool.idle = %d, want 1", idle)
		}
		if borrows, _ := a.ReadControl("stats.pool.borrows"); borrows.(uint64) != 101 {
			t.Fatalf("stats.pool.borrows = %d, want 101 (one per borrow)", borrows)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		if idle, _ := a.ReadControl("pool.idle"); idle.(int) != 0 {
			t.Fatalf("pool.idle = %d after Flush, want 0", idle)
		}
	})
}

// TestFlushMakesPooledSpansMeshable verifies the lifecycle story: spans
// held by idle pooled heaps are not meshing candidates until Flush
// relinquishes them.
func TestFlushMakesPooledSpansMeshable(t *testing.T) {
	a := New(WithSeed(5), WithClock(NewLogicalClock()))
	// Build a fragmented heap through the pooled API only.
	var ptrs []Ptr
	for i := 0; i < 16*256; i++ {
		p, err := a.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if i%16 == 0 {
			continue
		}
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if idle, _ := a.ReadControl("pool.idle"); idle.(int) != 0 {
		t.Fatalf("pool.idle = %d after Flush, want 0", idle)
	}
	before := a.RSS()
	if released := a.Mesh(); released == 0 {
		t.Fatal("meshing released nothing on a sparsely occupied heap")
	}
	if after := a.RSS(); after >= before {
		t.Fatalf("RSS %d did not drop from %d after meshing", after, before)
	}
	requireCleanInvariants(t, a)
}

// TestConcurrentErrorsAreSafe drives invalid frees from many goroutines;
// they must be reported as errors and counted, never corrupt state.
func TestConcurrentErrorsAreSafe(t *testing.T) {
	a := New(WithSeed(17))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := a.Free(Ptr(0xdead0000 + uint64(w*64+i)*16)); err == nil {
					t.Error("free of never-allocated pointer succeeded")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := a.Stats(); st.InvalidFree != 8*50 {
		t.Fatalf("InvalidFree = %d, want %d", st.InvalidFree, 8*50)
	}
	requireCleanInvariants(t, a)
	// Error classification survives the concurrent paths. Flush between
	// the two frees so the second one takes the global path, where double
	// frees are detected (§4.4.4); keep a second object live so the span
	// outlives the first free.
	ptrs, err := a.MallocBatch([]int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(ptrs[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(ptrs[0]); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free returned %v, want ErrDoubleFree", err)
	}
	if err := a.Free(ptrs[1]); err != nil {
		t.Fatal(err)
	}
}

// TestScaleStressCrossClass is the sharded-free-path stress test: 16
// goroutines, each allocating from a pinned Thread in its own size class,
// exchange object batches around a ring so that every free is a remote
// free in a different shard than the freeing thread's neighbours —
// alternating scalar frees (one shard acquisition each) and batch frees
// (one shard acquisition per class in the batch) — while the background
// daemon meshes continuously underneath. Under -race this drives the
// per-class shard locks against the mesh barrier ordering: writers fault
// on protect windows and wait on the barrier, frees race meshing fix-ups
// in their shard, and content carried across the hand-off proves no write
// or relocation was lost.
func TestScaleStressCrossClass(t *testing.T) {
	a := New(WithSeed(31),
		WithBackgroundMeshing(true),
		WithMeshPeriod(0), // every nudge is due
		WithMaxMeshPause(50*time.Microsecond),
		WithMinMeshSavings(1)) // never disarm
	defer a.Close()

	classSizes := []int{16, 32, 64, 128, 256, 512, 1024, 2048}
	const (
		workers = 16
		rounds  = 60
		objs    = 32
	)
	rings := make([]chan []Ptr, workers)
	for i := range rings {
		rings[i] = make(chan []Ptr, rounds+1) // senders never block
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := a.NewThread()
			defer th.Close()
			size := classSizes[w%len(classSizes)]
			val := byte(w + 1)
			expect := byte((w-1+workers)%workers + 1)
			buf := make([]byte, 1)
			for r := 0; r < rounds; r++ {
				batch := make([]Ptr, objs)
				for j := range batch {
					p, err := th.Malloc(size)
					if err != nil {
						errc <- err
						return
					}
					if err := a.Write(p, []byte{val}); err != nil {
						errc <- err
						return
					}
					batch[j] = p
				}
				rings[(w+1)%workers] <- batch
				var got []Ptr
				select {
				case got = <-rings[w]:
				case <-time.After(30 * time.Second):
					errc <- errors.New("ring stalled: a neighbour died")
					return
				}
				for _, p := range got {
					if err := a.Read(p, buf); err != nil {
						errc <- err
						return
					}
					if buf[0] != expect {
						errc <- errLost{p, buf[0], expect}
						return
					}
				}
				if r%2 == 0 {
					if err := th.FreeBatch(got); err != nil {
						errc <- err
						return
					}
				} else {
					for _, p := range got {
						if err := th.Free(p); err != nil {
							errc <- err
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	a.Mesh()
	requireCleanInvariants(t, a)
	if live := a.Stats().Live; live != 0 {
		t.Fatalf("live = %d after full drain", live)
	}
}
