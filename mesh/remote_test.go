package mesh

import (
	"sync"
	"testing"
	"time"
)

// TestRemoteFreeStressPoolAndMeshing is the public-API litmus stress for
// the message-passing remote-free path: producers allocate from explicit
// Threads and from the shared Allocator surface, consumers free through
// the shared surface (every call takes a front-end heap and parks it
// again, so park drains interleave with pushes), and the background daemon meshes
// detached spans underneath — the protect→copy→remap windows race the
// drain-by-address fallback. The lost-free and double-free checks are the
// exact-accounting invariants: after Flush, live bytes are zero, frees
// equal allocs, queued equals drained, and nothing was reported invalid.
func TestRemoteFreeStressPoolAndMeshing(t *testing.T) {
	a := New(WithSeed(41),
		WithBackgroundMeshing(true),
		WithMeshPeriod(0), // every nudge is due
		WithMaxMeshPause(50*time.Microsecond),
		WithMinMeshSavings(1)) // never disarm
	defer a.Close()

	const (
		producers = 4
		consumers = 4
		rounds    = 150
		batchLen  = 16
	)
	sizes := []int{16, 64, 256, 1024}
	ring := make(chan []Ptr, producers*2)
	errc := make(chan error, producers+consumers)
	var prodWG, consWG sync.WaitGroup

	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			// Half the producers pin a Thread (its heap's queue drains at
			// refill/Close), half use the shared surface (drains at each
			// stripe park).
			var th *Thread
			if p%2 == 0 {
				th = a.NewThread()
				defer func() {
					if err := th.Close(); err != nil {
						errc <- err
					}
				}()
			}
			for r := 0; r < rounds; r++ {
				batch := make([]Ptr, 0, batchLen)
				for i := 0; i < batchLen; i++ {
					var ptr Ptr
					var err error
					if th != nil {
						ptr, err = th.Malloc(sizes[(p+i)%len(sizes)])
					} else {
						ptr, err = a.Malloc(sizes[(p+i)%len(sizes)])
					}
					if err != nil {
						errc <- err
						return
					}
					// Dirty the object so meshing has real bytes to carry.
					if err := a.Memset(ptr, byte(r), 8); err != nil {
						errc <- err
						return
					}
					batch = append(batch, ptr)
				}
				ring <- batch
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func(c int) {
			defer consWG.Done()
			for batch := range ring {
				if c%2 == 0 {
					if err := a.FreeBatch(batch); err != nil {
						errc <- err
						return
					}
					continue
				}
				for _, ptr := range batch {
					if err := a.Free(ptr); err != nil {
						errc <- err
						return
					}
				}
			}
		}(c)
	}

	prodWG.Wait()
	close(ring)
	consWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	total := uint64(producers * rounds * batchLen)
	if st.InvalidFree != 0 {
		t.Fatalf("%d invalid/double frees under clean traffic", st.InvalidFree)
	}
	if st.Allocs != total || st.Frees != total {
		t.Fatalf("allocs/frees = %d/%d, want %d each (lost free?)", st.Allocs, st.Frees, total)
	}
	if st.Live != 0 {
		t.Fatalf("live = %d after flush (lost free)", st.Live)
	}
	if st.Remote.Queued != st.Remote.Drained {
		t.Fatalf("queued %d != drained %d after flush", st.Remote.Queued, st.Remote.Drained)
	}
	requireCleanInvariants(t, a)
}
