package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sizeclass"
	"repro/internal/vm"
)

func testHeap(t *testing.T, mutate func(*Config)) (*GlobalHeap, *ThreadHeap) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Clock = NewLogicalClock()
	if mutate != nil {
		mutate(&cfg)
	}
	g := NewGlobalHeap(cfg)
	g.SetMeshPeriod(0) // tests drive meshing explicitly or per free
	return g, NewThreadHeap(g, 1)
}

// armFaults arms g's fault plane with spec and enables it.
func armFaults(t *testing.T, g *GlobalHeap, spec string) {
	t.Helper()
	if err := g.Faults().SetPlan(spec); err != nil {
		t.Fatal(err)
	}
	g.Faults().SetEnabled(true)
}

func TestMallocFreeRoundTrip(t *testing.T) {
	g, th := testHeap(t, nil)
	addr, err := th.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if addr == 0 {
		t.Fatal("nil address")
	}
	// The object's memory is usable through the VM.
	payload := []byte("mesh says hi")
	if err := g.OS().Write(addr, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := g.OS().Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("data mismatch: %q", got)
	}
	if err := th.Free(addr); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Allocs != 1 || st.Frees != 1 || st.Live != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDistinctAddresses(t *testing.T) {
	_, th := testHeap(t, nil)
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		a, err := th.Malloc(48)
		if err != nil {
			t.Fatal(err)
		}
		if seen[a] {
			t.Fatalf("address %#x handed out twice", a)
		}
		seen[a] = true
	}
}

func TestSizeClassRouting(t *testing.T) {
	g, th := testHeap(t, nil)
	small, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	large, err := th.Malloc(sizeclass.MaxSize + 1)
	if err != nil {
		t.Fatal(err)
	}
	if small == large {
		t.Fatal("overlapping allocations")
	}
	// Large allocations are page-aligned (§4.4.3).
	if large%vm.PageSize != 0 {
		t.Fatalf("large object not page aligned: %#x", large)
	}
	if err := th.Free(large); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(small); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Live != 0 {
		t.Fatalf("live = %d", g.Stats().Live)
	}
}

func TestInvalidSizes(t *testing.T) {
	_, th := testHeap(t, nil)
	for _, sz := range []int{0, -5} {
		if _, err := th.Malloc(sz); err == nil {
			t.Fatalf("Malloc(%d) succeeded", sz)
		}
	}
}

func TestInvalidAndDoubleFrees(t *testing.T) {
	g, th := testHeap(t, nil)
	if err := th.Free(0xdeadbeef000); !errors.Is(err, ErrInvalidFree) {
		t.Fatalf("wild free: %v", err)
	}
	addr, _ := th.Malloc(32)
	// Interior pointer.
	if err := g.Free(addr + 1); !errors.Is(err, ErrInvalidFree) {
		t.Fatalf("interior free: %v", err)
	}
	// Legit free via the global path (simulating a remote thread), then a
	// double free.
	if err := g.Free(addr); err != nil {
		t.Fatal(err)
	}
	if err := g.Free(addr); !errors.Is(err, ErrDoubleFree) && !errors.Is(err, ErrInvalidFree) {
		t.Fatalf("double free: %v", err)
	}
	if g.Stats().InvalidFree < 2 {
		t.Fatalf("invalid free count = %d", g.Stats().InvalidFree)
	}
}

func TestRefillAcrossSpans(t *testing.T) {
	_, th := testHeap(t, nil)
	// The 16-byte class holds 256 objects per span; allocating 600 forces
	// at least two refills.
	var addrs []uint64
	for i := 0; i < 600; i++ {
		a, err := th.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if refills := th.Refills(); refills < 3 {
		t.Fatalf("refills = %d, want ≥ 3", refills)
	}
	for _, a := range addrs {
		if err := th.Free(a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefillAllocationFree pins the refill slow path's zero-Go-allocation
// property in steady state: releasing the attached spans, filing them in
// their occupancy bins, gathering spans from the bins and attaching them —
// shuffle vector, owner sink publication and bin bookkeeping included —
// must allocate nothing on the Go heap. Both classes gather several
// half-full spans per refill, so the attached list must be sized once.
func TestRefillAllocationFree(t *testing.T) {
	for _, size := range []int{64, 512} {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			_, th := testHeap(t, nil)
			class := mustClass(t, size)
			count := sizeclass.ObjectCount(class)
			// Fill eight spans, then free every other object: the detached
			// spans become half full and sit in the bins, and the attached
			// one keeps half its slots in the shuffle vector.
			addrs := make([]uint64, 0, 8*count)
			for i := 0; i < 8*count; i++ {
				a, err := th.Malloc(size)
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, a)
			}
			for i := 0; i < len(addrs); i += 2 {
				if err := th.Free(addrs[i]); err != nil {
					t.Fatal(err)
				}
			}
			refill := func() {
				for i := 0; i < 10; i++ {
					if err := th.refill(class); err != nil {
						t.Fatal(err)
					}
				}
			}
			refill() // warm up: the bins' slices reach their steady capacity
			if n := len(th.attached[class]); n < 2 {
				t.Fatalf("a refill gathered %d spans, want several", n)
			}
			before := th.Refills()
			if avg := testing.AllocsPerRun(100, refill); avg != 0 {
				t.Fatalf("steady-state refills allocate %.1f objects per 10 refills, want 0", avg)
			}
			if th.Refills()-before < 1000 {
				t.Fatalf("measured loop ran %d refills, want at least 1000", th.Refills()-before)
			}
		})
	}
}

func TestLocalFreeIsLocal(t *testing.T) {
	g, th := testHeap(t, nil)
	addr, _ := th.Malloc(64)
	acquires, queued := g.ShardAcquires(), g.RemoteQueued()
	if err := th.Free(addr); err != nil {
		t.Fatal(err)
	}
	// A local free settles on the shuffle vector: no shard lock, no
	// remote queue.
	if got := g.ShardAcquires(); got != acquires {
		t.Fatalf("shard acquires %d -> %d across a local free", acquires, got)
	}
	if got := g.RemoteQueued(); got != queued {
		t.Fatalf("remote queued %d -> %d across a local free", queued, got)
	}
	// And the slot is reusable.
	addr2, _ := th.Malloc(64)
	_ = addr2
	if g.Stats().Live != int64(sizeclass.Size(mustClass(t, 64))) {
		t.Fatalf("live = %d", g.Stats().Live)
	}
}

func mustClass(t *testing.T, size int) int {
	t.Helper()
	c, ok := sizeclass.ClassForSize(size)
	if !ok {
		t.Fatalf("no class for %d", size)
	}
	return c
}

func TestRemoteFreeUpdatesBitmapOnly(t *testing.T) {
	// A cross-thread free whose queue push fails (the remote.segment fault
	// site, armed on every evaluation) takes the classic §3.2 path while
	// the span is still attached: the shard-locked bitmap update, nothing
	// else.
	g, th := testHeap(t, nil)
	armFaults(t, g, "remote.segment")
	addr, _ := th.Malloc(128)
	// Another "thread" frees it through the global heap.
	other := NewThreadHeap(g, 2)
	if err := other.Free(addr); err != nil {
		t.Fatal(err)
	}
	// Owner's attached MiniHeap saw the bitmap change.
	mh := g.arena.Lookup(addr)
	if mh == nil {
		t.Fatal("span vanished")
	}
	off, _ := mh.OffsetOf(addr)
	if mh.Bitmap().IsSet(off) {
		t.Fatal("remote free did not clear bitmap bit")
	}
	if g.Stats().Live != 0 {
		t.Fatalf("live = %d", g.Stats().Live)
	}
	if q := g.RemoteQueued(); q != 0 {
		t.Fatalf("remote.segment armed but %d frees queued", q)
	}
}

func TestEmptySpanReleasedToArena(t *testing.T) {
	g, th := testHeap(t, nil)
	g.SetMeshingEnabled(false)
	var addrs []uint64
	for i := 0; i < 256; i++ {
		a, _ := th.Malloc(16)
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := th.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	// Detach everything; the now-empty span must be destroyed and its
	// memory binned/punched rather than parked in occupancy bins.
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if live := g.Stats().Live; live != 0 {
		t.Fatalf("live = %d", live)
	}
	binned := 0
	for c := range g.classes {
		cs := &g.classes[c]
		cs.lock()
		for b := range cs.bins {
			binned += cs.bins[b].len()
		}
		binned += cs.full.len()
		cs.unlock()
	}
	if binned != 0 {
		t.Fatalf("%d MiniHeaps still binned after all frees", binned)
	}
}

// buildMeshableSpans allocates two spans of the 16-byte class whose live
// objects occupy provably disjoint offsets, writes recognizable contents,
// detaches both, and returns the surviving addresses and their payloads.
func buildMeshableSpans(t *testing.T, g *GlobalHeap, th *ThreadHeap) map[uint64]byte {
	t.Helper()
	// Fill two full spans, tracking offsets via MiniHeap geometry.
	type obj struct {
		addr uint64
		off  int
		span int
	}
	var objs []obj
	spanOf := map[uint64]int{}
	nextSpan := 0
	for i := 0; i < 512; i++ {
		a, err := th.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		mh := g.arena.Lookup(a)
		base := mh.SpanStart()
		if _, ok := spanOf[base]; !ok {
			spanOf[base] = nextSpan
			nextSpan++
		}
		off, _ := mh.OffsetOf(a)
		objs = append(objs, obj{addr: a, off: off, span: spanOf[base]})
	}
	if nextSpan != 2 {
		t.Fatalf("expected 2 spans, got %d", nextSpan)
	}
	// Keep offsets 0..7 live in span 0 and 248..255 in span 1; free the
	// rest. Disjoint by construction, so the two spans must mesh.
	keep := map[uint64]byte{}
	for _, o := range objs {
		keepIt := (o.span == 0 && o.off < 8) || (o.span == 1 && o.off >= 248)
		if keepIt {
			val := byte(o.off)
			if err := g.OS().Write(o.addr, []byte{val, val, val, val}); err != nil {
				t.Fatal(err)
			}
			keep[o.addr] = val
		} else {
			if err := th.Free(o.addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Detach both spans so they become meshing candidates.
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	return keep
}

func TestMeshingEndToEnd(t *testing.T) {
	g, th := testHeap(t, nil)
	keep := buildMeshableSpans(t, g, th)

	rssBefore := g.OS().RSSPages()
	released := g.Mesh()
	if released != 1 {
		t.Fatalf("Mesh released %d spans, want 1", released)
	}
	rssAfter := g.OS().RSSPages()
	if rssAfter >= rssBefore {
		t.Fatalf("RSS did not drop: %d -> %d", rssBefore, rssAfter)
	}

	// The meshing invariant: every surviving virtual address still reads
	// its original contents.
	for addr, val := range keep {
		b, err := g.OS().ByteAt(addr)
		if err != nil {
			t.Fatalf("read %#x after mesh: %v", addr, err)
		}
		if b != val {
			t.Fatalf("content at %#x changed: %d != %d", addr, b, val)
		}
	}

	// Frees through the old virtual addresses still work after meshing.
	for addr := range keep {
		if err := th.Free(addr); err != nil {
			t.Fatalf("free %#x after mesh: %v", addr, err)
		}
	}
	if g.Stats().Live != 0 {
		t.Fatalf("live = %d after freeing all", g.Stats().Live)
	}
	st := g.Stats()
	if st.Mesh.SpansMeshed != 1 || st.Mesh.BytesFreed != vm.PageSize {
		t.Fatalf("mesh stats = %+v", st.Mesh)
	}
}

func TestMeshingDisabled(t *testing.T) {
	g, th := testHeap(t, nil)
	g.SetMeshingEnabled(false)
	buildMeshableSpans(t, g, th)
	if released := g.Mesh(); released != 0 {
		t.Fatalf("meshing disabled but released %d spans", released)
	}
}

func TestMeshingAllocationAfterMesh(t *testing.T) {
	// After meshing, new allocations from the surviving MiniHeap must not
	// collide with relocated objects.
	g, th := testHeap(t, nil)
	keep := buildMeshableSpans(t, g, th)
	if g.Mesh() != 1 {
		t.Fatal("expected one mesh")
	}
	// Allocate enough to necessarily reuse the meshed span (it is the
	// only partially full span).
	addrs := map[uint64]bool{}
	for i := 0; i < 240; i++ {
		a, err := th.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if keep[a] != 0 {
			t.Fatalf("allocator handed out live relocated object %#x", a)
		}
		addrs[a] = true
	}
	// Old objects still intact after the new allocations were written.
	for a := range addrs {
		if err := g.OS().Write(a, []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
	}
	for addr, val := range keep {
		b, _ := g.OS().ByteAt(addr)
		if b != val {
			t.Fatalf("relocated object at %#x clobbered", addr)
		}
	}
}

func TestNoRandomizationStillCorrect(t *testing.T) {
	g, th := testHeap(t, func(c *Config) { c.Randomize = false })
	var addrs []uint64
	for i := 0; i < 300; i++ {
		a, err := th.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := th.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if g.Stats().Live != 0 {
		t.Fatal("leak without randomization")
	}
}

func TestMeshRateLimiting(t *testing.T) {
	clock := NewLogicalClock()
	cfg := DefaultConfig()
	cfg.Clock = clock
	g := NewGlobalHeap(cfg)
	g.SetMeshPeriod(100 * time.Millisecond)
	th := NewThreadHeap(g, 1)

	// Build a detached span, then free its objects through the global
	// heap: only frees of global-heap objects trigger meshing (§3.2), and
	// only when the logical clock allows it.
	var addrs []uint64
	for i := 0; i < 256; i++ {
		a, err := th.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if err := th.Done(); err != nil { // detach the (full) span
		t.Fatal(err)
	}
	other := NewThreadHeap(g, 2)
	if err := other.Free(addrs[0]); err != nil { // global free at t=0
		t.Fatal(err)
	}
	if p := g.Stats().Mesh.Passes; p != 0 {
		t.Fatalf("pass ran at t=0 within the period: %d", p)
	}
	// Advance past the period and trigger another global free.
	clock.Advance(150 * time.Millisecond)
	if err := other.Free(addrs[1]); err != nil {
		t.Fatal(err)
	}
	if p := g.Stats().Mesh.Passes; p != 1 {
		t.Fatalf("passes = %d; want exactly 1", p)
	}
	// Without advancing the clock, more frees must not mesh again.
	if err := other.Free(addrs[2]); err != nil {
		t.Fatal(err)
	}
	if p := g.Stats().Mesh.Passes; p != 1 {
		t.Fatalf("rate limit bypassed: %d passes", p)
	}
	// Advancing the clock re-enables meshing on the next global free.
	clock.Advance(150 * time.Millisecond)
	if err := other.Free(addrs[3]); err != nil {
		t.Fatal(err)
	}
	if p := g.Stats().Mesh.Passes; p != 2 {
		t.Fatalf("passes = %d; want 2", p)
	}
}

func TestConcurrentThreadsWithMeshing(t *testing.T) {
	g, _ := testHeap(t, nil)
	const workers = 4
	const iters = 3000
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := NewThreadHeap(g, uint64(w+10))
			rnd := uint64(w)*2654435761 + 12345
			var live []uint64
			for i := 0; i < iters; i++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				sz := int(rnd%1024) + 1
				if rnd%3 != 0 || len(live) == 0 {
					a, err := th.Malloc(sz)
					if err != nil {
						errCh <- err
						return
					}
					// Touch the memory.
					if err := g.OS().SetByte(a, byte(i)); err != nil {
						errCh <- fmt.Errorf("write %#x: %w", a, err)
						return
					}
					live = append(live, a)
				} else {
					idx := int(rnd/7) % len(live)
					a := live[idx]
					live[idx] = live[len(live)-1]
					live = live[:len(live)-1]
					if err := th.Free(a); err != nil {
						errCh <- err
						return
					}
				}
				if i%500 == 0 {
					g.Mesh()
				}
			}
			for _, a := range live {
				if err := th.Free(a); err != nil {
					errCh <- err
					return
				}
			}
			if err := th.Done(); err != nil {
				errCh <- err
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if live := g.Stats().Live; live != 0 {
		t.Fatalf("live = %d after all frees", live)
	}
}

func TestConcurrentWritesDuringMeshing(t *testing.T) {
	// A writer hammers its objects while another goroutine meshes
	// repeatedly; the write barrier must serialize relocation and writes
	// so no update is lost.
	g, th := testHeap(t, nil)
	keep := buildMeshableSpans(t, g, th)
	addrs := make([]uint64, 0, len(keep))
	for a := range keep {
		addrs = append(addrs, a)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.Mesh()
		}
	}()

	for round := 0; round < 200; round++ {
		for i, a := range addrs {
			want := byte(round + i)
			if err := g.OS().SetByte(a, want); err != nil {
				t.Fatal(err)
			}
			got, err := g.OS().ByteAt(a)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %d: lost write at %#x: %d != %d", round, a, got, want)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestStatsMappedExceedsRSSAfterMesh(t *testing.T) {
	g, th := testHeap(t, nil)
	buildMeshableSpans(t, g, th)
	if g.Mesh() != 1 {
		t.Fatal("expected mesh")
	}
	st := g.Stats()
	if st.Mapped <= st.RSS {
		t.Fatalf("after meshing Mapped (%d) should exceed RSS (%d)", st.Mapped, st.RSS)
	}
	if st.VM.Remaps == 0 || st.VM.Punches == 0 {
		t.Fatalf("vm stats = %+v", st.VM)
	}
}

func BenchmarkMalloc16(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Clock = NewLogicalClock()
	g := NewGlobalHeap(cfg)
	th := NewThreadHeap(g, 1)
	addrs := make([]uint64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := th.Malloc(16)
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	b.StopTimer()
	for _, a := range addrs {
		_ = th.Free(a)
	}
}

func BenchmarkMallocFreeChurn(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Clock = NewLogicalClock()
	g := NewGlobalHeap(cfg)
	th := NewThreadHeap(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := th.Malloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := th.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeshPass(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Clock = NewLogicalClock()
	g := NewGlobalHeap(cfg)
	th := NewThreadHeap(g, 1)
	// Build a fragmented heap: many sparse detached spans.
	var addrs []uint64
	for i := 0; i < 64*256; i++ {
		a, err := th.Malloc(16)
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for i, a := range addrs {
		if i%16 != 0 {
			if err := th.Free(a); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := th.Done(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Mesh()
	}
}
