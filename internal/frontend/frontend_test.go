package frontend

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// testCache builds a Cache over a fresh global heap with counting
// borrow/ret bridges, mirroring how mesh wires it to the heap pool.
// magObjects is the magazine capacity the test is written for; the test
// stops if the build's capacity differs.
func testCache(t *testing.T, magObjects int) (*Cache, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	if magObjects != magazineCap {
		t.Fatalf("test written for %d-object magazines, the build has %d", magObjects, magazineCap)
	}
	cfg := core.DefaultConfig()
	cfg.Clock = core.NewLogicalClock()
	g := core.NewGlobalHeap(cfg)
	g.SetMeshPeriod(0)
	var nextID, borrows, rets atomic.Int64
	borrow := func() *core.ThreadHeap {
		borrows.Add(1)
		return core.NewThreadHeap(g, uint64(nextID.Add(1)))
	}
	ret := func(th *core.ThreadHeap) {
		rets.Add(1)
		if err := th.Done(); err != nil {
			t.Errorf("retiring heap: %v", err)
		}
	}
	return NewCache(g, borrow, ret), &borrows, &rets
}

func TestStripeParkAndReuse(t *testing.T) {
	c, borrows, rets := testCache(t, magazineCap)
	f := c.Acquire()
	if borrows.Load() != 1 || c.Misses() != 1 {
		t.Fatalf("cold acquire: borrows=%d misses=%d, want 1/1", borrows.Load(), c.Misses())
	}
	p, err := f.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	// Same goroutine, same stack page: the second acquire must hit the
	// parked front without touching the pool bridge.
	g := c.Acquire()
	if g != f {
		t.Fatalf("warm acquire returned %p, want the parked front %p", g, f)
	}
	if borrows.Load() != 1 || c.Hits() != 1 {
		t.Fatalf("warm acquire: borrows=%d hits=%d, want 1/1", borrows.Load(), c.Hits())
	}
	if err := g.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(g); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if rets.Load() != 1 {
		t.Fatalf("Flush retired %d heaps, want 1", rets.Load())
	}
	// Flush left nothing parked: the next acquire borrows a fresh heap.
	if g := c.Acquire(); g == f || borrows.Load() != 2 {
		t.Fatalf("acquire after Flush returned the retired front or borrowed %d heaps, want 2", borrows.Load())
	}
}

// TestMissStealsParkedFront pins the steal: a front parked on a stripe
// its goroutine does not hash to — here because the releaser's home
// stripe was already full — serves the next miss instead of a fresh pool
// borrow. All on one goroutine, so the home stripe is fixed.
func TestMissStealsParkedFront(t *testing.T) {
	c, borrows, _ := testCache(t, magazineCap)
	f1 := c.Acquire()
	f2 := c.Acquire() // the home stripe is still empty: a second borrow
	if borrows.Load() != 2 {
		t.Fatalf("cold acquires borrowed %d heaps, want 2", borrows.Load())
	}
	// f1 parks on the home stripe; f2 finds it full and parks on another
	// stripe through Release's scan.
	for _, f := range []*Front{f1, f2} {
		if err := c.Release(f); err != nil {
			t.Fatal(err)
		}
	}
	if g := c.Acquire(); g != f1 {
		t.Fatalf("home-stripe acquire returned %p, want %p", g, f1)
	}
	g := c.Acquire()
	if g != f2 {
		t.Fatalf("miss returned %p, want the front parked on another stripe %p", g, f2)
	}
	if borrows.Load() != 2 {
		t.Fatalf("borrows = %d after the steal, want 2 (a steal is not a borrow)", borrows.Load())
	}
	if c.Hits() != 1 || c.Misses() != 3 {
		t.Fatalf("hits=%d misses=%d, want 1/3 (a steal counts as a miss)", c.Hits(), c.Misses())
	}
	for _, f := range []*Front{f1, f2} {
		if err := c.Release(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestStealSingleOwnerLitmus checks the single-owner invariant across
// every hand-off the front end makes — home-stripe hits, steals from
// other stripes, pool borrows, overflow retirements — while another
// goroutine flushes. A per-front owner flag is set by CAS 0→1 on acquire
// and reset before release; the CAS must never find a front already held.
// Each owner also runs a malloc/free through the front's magazines, so
// the race detector sees any shared ownership of their plain fields.
func TestStealSingleOwnerLitmus(t *testing.T) {
	const (
		workers = 8
		rounds  = 1000
	)
	c, _, _ := testCache(t, 8)
	var flags sync.Map // *Front -> *atomic.Int32
	own := func(f *Front) *atomic.Int32 {
		v, _ := flags.LoadOrStore(f, new(atomic.Int32))
		flag := v.(*atomic.Int32)
		if !flag.CompareAndSwap(0, 1) {
			t.Errorf("front %p handed to a second owner", f)
		}
		return flag
	}
	use := func(f *Front) {
		p, err := f.Malloc(64)
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Free(p); err != nil {
			t.Error(err)
		}
	}
	stop := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds && !t.Failed(); r++ {
				// Holding two fronts at once makes the second release park
				// off the home stripe, feeding other goroutines' steals.
				n := 1 + (r+w)%2
				held := make([]*Front, 0, 2)
				flagsHeld := make([]*atomic.Int32, 0, 2)
				for i := 0; i < n; i++ {
					f := c.Acquire()
					flagsHeld = append(flagsHeld, own(f))
					use(f)
					held = append(held, f)
				}
				for i, f := range held {
					flagsHeld[i].Store(0)
					if err := c.Release(f); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	flusher.Wait()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.CachedObjects(); got != 0 {
		t.Fatalf("cached objects = %d after the final Flush, want 0", got)
	}
	if err := c.g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := c.g.Stats()
	if st.Allocs != st.Frees || st.Live != 0 {
		t.Fatalf("allocs=%d frees=%d live=%d at quiescence", st.Allocs, st.Frees, st.Live)
	}
}

func TestReleaseOverflowRetires(t *testing.T) {
	c, borrows, rets := testCache(t, magazineCap)
	// One goroutine acquires more fronts than there are stripes: every
	// Acquire empties the caller's stripe, so each is a miss. Releasing
	// all of them can park at most NumStripes fronts (own stripe + the
	// overflow scan); the rest must retire through the pool bridge.
	const extra = 3
	fronts := make([]*Front, NumStripes+extra)
	for i := range fronts {
		fronts[i] = c.Acquire()
	}
	if borrows.Load() != int64(len(fronts)) {
		t.Fatalf("borrows = %d, want %d", borrows.Load(), len(fronts))
	}
	for _, f := range fronts {
		if err := c.Release(f); err != nil {
			t.Fatal(err)
		}
	}
	if rets.Load() != extra {
		t.Fatalf("overflow releases retired %d heaps, want %d", rets.Load(), extra)
	}
}

func TestMagazineFillAndFlush(t *testing.T) {
	const cap = 8
	c, _, _ := testCache(t, cap)
	f := c.Acquire()

	// Cold magazine: the first Malloc batch-fills half the capacity and
	// pops one.
	p, err := f.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fills() != 1 {
		t.Fatalf("fills = %d after cold malloc, want 1", c.Fills())
	}
	if f.cached != cap/2-1 {
		t.Fatalf("cached = %d after fill+pop, want %d", f.cached, cap/2-1)
	}
	// The remaining half-capacity allocations are all magazine pops: no
	// further fills.
	ptrs := []uint64{p}
	for i := 0; i < cap/2-1; i++ {
		q, err := f.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, q)
	}
	if c.Fills() != 1 {
		t.Fatalf("fills = %d after warm mallocs, want 1", c.Fills())
	}
	seen := map[uint64]bool{}
	for _, q := range ptrs {
		if seen[q] {
			t.Fatalf("duplicate address %#x from magazine", q)
		}
		seen[q] = true
	}

	// Frees push back without flushing until the magazine overflows.
	for _, q := range ptrs {
		if err := f.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	if c.Flushes() != 0 {
		t.Fatalf("flushes = %d before overflow, want 0", c.Flushes())
	}
	// Balanced pop/push traffic can never overflow; imbalance comes from
	// frees of objects the magazine didn't supply. Allocate around the
	// magazine (the heap's ordinary path), then free through it: the
	// pushes land on top of the cached half and force a half flush.
	var more []uint64
	for i := 0; i < cap; i++ {
		q, err := f.Heap().Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		more = append(more, q)
	}
	for _, q := range more {
		if err := f.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	if c.Flushes() == 0 {
		t.Fatal("overfreeing never flushed the magazine")
	}

	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	if got := c.CachedObjects(); got == 0 {
		t.Fatal("parked front reported no cached objects")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.CachedObjects(); got != 0 {
		t.Fatalf("cached objects = %d after Flush, want 0", got)
	}
}

func TestMagazineRoutesIneligibleFrees(t *testing.T) {
	c, _, _ := testCache(t, 8)
	f := c.Acquire()
	// An address the page map cannot resolve is not magazine-eligible; it
	// takes the heap's ordinary path and keeps its typed error.
	if err := f.Free(0xdead0000); err == nil {
		t.Fatal("invalid free through the magazine path reported no error")
	}
	// Large objects bypass magazines entirely.
	p, err := f.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Free(p); err != nil {
		t.Fatal(err)
	}
	if c.Fills() != 0 || c.Flushes() != 0 {
		t.Fatalf("large round trip touched magazines: fills=%d flushes=%d", c.Fills(), c.Flushes())
	}
	// A settled double free (freed, flushed out of the magazine) is
	// routed to the checked path and reported.
	q, err := f.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Free(q); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil { // settles q out of the magazine
		t.Fatal(err)
	}
	f = c.Acquire()
	if err := f.Free(q); err == nil {
		t.Fatal("double free of a settled object reported no error")
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
}

func TestMagazineAccountingBalancesAtQuiescence(t *testing.T) {
	// Heap-level accounting counts magazine population as allocated; the
	// identity allocs == frees must close once the cache flushes.
	c, _, _ := testCache(t, magazineCap)
	f := c.Acquire()
	var live []uint64
	for i := 0; i < 200; i++ {
		p, err := f.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	for _, p := range live {
		if err := f.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	if c.CachedObjects() <= 0 {
		t.Fatal("app-level quiescence left no magazine skew to report")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.CachedObjects() != 0 {
		t.Fatalf("cached objects = %d after Flush, want 0", c.CachedObjects())
	}
}
