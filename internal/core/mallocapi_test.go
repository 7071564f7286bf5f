package core

import (
	"testing"

	"repro/internal/miniheap"
	"repro/internal/sizeclass"
	"repro/internal/vm"
)

func TestCallocZeroesDirtyMemory(t *testing.T) {
	g, th := testHeap(t, nil)
	// Dirty a span, free it, force reuse, then calloc from the same class
	// and check for zeroed memory.
	a1, _ := th.Malloc(128)
	if err := g.OS().Memset(a1, 0xFF, 128); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(a1); err != nil {
		t.Fatal(err)
	}
	addr, err := th.Calloc(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := g.OS().Read(addr, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("calloc memory dirty at %d: %#x", i, b)
		}
	}
	if err := th.Free(addr); err != nil {
		t.Fatal(err)
	}
}

func TestCallocEdgeCases(t *testing.T) {
	_, th := testHeap(t, nil)
	// Zero-count calloc returns a valid unique pointer.
	p, err := th.Calloc(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p == 0 {
		t.Fatal("calloc(0, 16) returned nil")
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	// Overflow is rejected.
	huge := int(^uint(0)>>1)/2 + 1
	if _, err := th.Calloc(huge, 4); err == nil {
		t.Fatal("overflowing calloc succeeded")
	}
	if _, err := th.Calloc(-1, 4); err == nil {
		t.Fatal("negative calloc succeeded")
	}
}

func TestReallocContract(t *testing.T) {
	g, th := testHeap(t, nil)
	// Realloc(0, n) == Malloc.
	p, err := th.Realloc(0, 100)
	if err != nil || p == 0 {
		t.Fatalf("realloc from nil: %#x, %v", p, err)
	}
	payload := []byte("twelve bytes")
	if err := g.OS().Write(p, payload); err != nil {
		t.Fatal(err)
	}
	// Shrink within the usable size: same address.
	q, err := th.Realloc(p, 50)
	if err != nil || q != p {
		t.Fatalf("in-place shrink moved: %#x -> %#x, %v", p, q, err)
	}
	// Grow: new address, contents preserved.
	r, err := th.Realloc(p, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if r == p {
		t.Fatal("grow past usable size did not move")
	}
	got := make([]byte, len(payload))
	if err := g.OS().Read(r, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("realloc lost contents: %q", got)
	}
	// The old object was freed: exactly one object (the 4096-byte class
	// copy) remains live. (A bitmap-level double-free probe cannot detect
	// the stale pointer here because locally freed slots stay reserved in
	// the owner's shuffle vector, §4.1.)
	if live := g.Stats().Live; live != 4096 {
		t.Fatalf("live = %d after realloc move, want 4096", live)
	}
	// Realloc(addr, 0) == Free.
	z, err := th.Realloc(r, 0)
	if err != nil || z != 0 {
		t.Fatalf("realloc to zero: %#x, %v", z, err)
	}
	if g.Stats().Live != 0 {
		t.Fatalf("live = %d", g.Stats().Live)
	}
}

// TestReallocGrowthAllocationFree pins the realloc growth path's zero-Go-
// allocation property: the object moves via a span-to-span vm.Copy rather
// than staging through a fresh []byte per call. Steady-state churn (the
// shuffle vectors recycle both classes' slots, so no refill runs) must
// allocate nothing on the Go heap.
func TestReallocGrowthAllocationFree(t *testing.T) {
	_, th := testHeap(t, nil)
	// Warm both classes so the measured loop never refills.
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	q, err := th.Realloc(p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(q); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		q, err := th.Realloc(p, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.Free(q); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("realloc growth churn allocates %.1f objects per round, want 0", avg)
	}
}

func TestReallocLargeToLarger(t *testing.T) {
	g, th := testHeap(t, nil)
	p, err := th.Malloc(sizeclass.MaxSize + 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.OS().Write(p, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	q, err := th.Realloc(p, 10*sizeclass.MaxSize)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 3)
	if err := g.OS().Read(q, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 9 || b[2] != 9 {
		t.Fatal("large realloc lost contents")
	}
	if err := th.Free(q); err != nil {
		t.Fatal(err)
	}
}

func TestAlignedAlloc(t *testing.T) {
	_, th := testHeap(t, nil)
	for _, align := range []int{16, 32, 64, 128, 256, 1024, 4096} {
		for _, size := range []int{1, 17, 100, 500, 5000} {
			p, err := th.AlignedAlloc(align, size)
			if err != nil {
				t.Fatalf("AlignedAlloc(%d, %d): %v", align, size, err)
			}
			if p%uint64(align) != 0 {
				t.Fatalf("AlignedAlloc(%d, %d) = %#x misaligned", align, size, p)
			}
			usable, err := th.UsableSize(p)
			if err != nil {
				t.Fatal(err)
			}
			if usable < size {
				t.Fatalf("usable %d < requested %d", usable, size)
			}
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAlignedAllocRejectsBadAlignment(t *testing.T) {
	_, th := testHeap(t, nil)
	for _, align := range []int{0, -8, 3, 24, vm.PageSize * 2} {
		if _, err := th.AlignedAlloc(align, 64); err == nil {
			t.Fatalf("alignment %d accepted", align)
		}
	}
}

func TestUsableSize(t *testing.T) {
	_, th := testHeap(t, nil)
	p, _ := th.Malloc(100) // 112-byte class
	if got, err := th.UsableSize(p); err != nil || got != 112 {
		t.Fatalf("UsableSize = %d, %v; want 112", got, err)
	}
	lg, _ := th.Malloc(vm.PageSize + 1)
	if got, err := th.UsableSize(lg); err != nil || got != 2*vm.PageSize {
		t.Fatalf("large UsableSize = %d, %v", got, err)
	}
	if _, err := th.UsableSize(0xbad000); err == nil {
		t.Fatal("UsableSize accepted wild pointer")
	}
	_ = th.Free(p)
	_ = th.Free(lg)
}

func TestRuntimeKnobs(t *testing.T) {
	g, th := testHeap(t, nil)
	g.SetMeshPeriod(42 * 1e6)
	if g.MeshPeriod() != 42*1e6 {
		t.Fatal("SetMeshPeriod lost")
	}
	// Disable meshing at runtime; an explicit Mesh must become a no-op.
	buildMeshableSpans(t, g, th)
	g.SetMeshingEnabled(false)
	if got := g.Mesh(); got != 0 {
		t.Fatalf("meshing disabled but released %d spans", got)
	}
	g.SetMeshingEnabled(true)
	if got := g.Mesh(); got != 1 {
		t.Fatalf("meshing re-enabled but released %d spans", got)
	}
}

func TestClassStatsSnapshot(t *testing.T) {
	g, th := testHeap(t, nil)
	var ps []uint64
	for i := 0; i < 300; i++ {
		p, _ := th.Malloc(16)
		ps = append(ps, p)
	}
	cs := g.ClassStatsSnapshot()
	c16, _ := sizeclass.ClassForSize(16)
	if cs[c16].Spans < 2 {
		t.Fatalf("16B class spans = %d, want ≥ 2", cs[c16].Spans)
	}
	if cs[c16].ObjectSize != 16 || cs[c16].SpanPages != 1 {
		t.Fatalf("class geometry: %+v", cs[c16])
	}
	if cs[c16].AttachedSpan != 1 {
		t.Fatalf("attached spans = %d, want 1", cs[c16].AttachedSpan)
	}
	// Reserved slots count as live in the bitmap census, so occupancy is
	// a lower bound check only.
	if cs[c16].Capacity < 300 {
		t.Fatalf("capacity = %d", cs[c16].Capacity)
	}
	for _, p := range ps {
		_ = th.Free(p)
	}
}

func TestLargeStatsSnapshot(t *testing.T) {
	g, th := testHeap(t, nil)
	p1, _ := th.Malloc(20000)
	p2, _ := th.Malloc(50000)
	ls := g.LargeStatsSnapshot()
	if ls.Objects != 2 {
		t.Fatalf("large objects = %d", ls.Objects)
	}
	if ls.Bytes < 70000 {
		t.Fatalf("large bytes = %d", ls.Bytes)
	}
	_ = th.Free(p1)
	_ = th.Free(p2)
	if ls := g.LargeStatsSnapshot(); ls.Objects != 0 {
		t.Fatalf("large objects after free = %d", ls.Objects)
	}
}

func TestCheckIntegrityCleanHeap(t *testing.T) {
	g, th := testHeap(t, nil)
	if err := g.CheckIntegrity(); err != nil {
		t.Fatalf("fresh heap: %v", err)
	}
	keep := buildMeshableSpans(t, g, th)
	if err := g.CheckIntegrity(); err != nil {
		t.Fatalf("fragmented heap: %v", err)
	}
	g.Mesh()
	if err := g.CheckIntegrity(); err != nil {
		t.Fatalf("after meshing: %v", err)
	}
	for addr := range keep {
		if err := th.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatalf("after teardown: %v", err)
	}
}

// TestCheckIntegrityCatchesSlotCorruption proves the membership-slot
// checks are not vacuous: each corruption of one slot must be reported,
// and undoing it must make the heap pass again.
func TestCheckIntegrityCatchesSlotCorruption(t *testing.T) {
	g, th := testHeap(t, nil)
	buildMeshableSpans(t, g, th)
	if _, err := th.Malloc(64); err != nil {
		t.Fatal(err)
	}
	class := mustClass(t, 64)
	attached := th.attached[class][0]
	var binned *miniheap.MiniHeap
	var bin int
	for c := range g.classes {
		for b, set := range g.classes[c].bins {
			if set.len() >= 2 {
				binned, bin = set.items[0], b
			}
		}
	}
	if attached == nil || binned == nil {
		t.Fatal("setup left no attached span or no bin with two spans")
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	corruptions := []struct {
		name string
		slot *miniheap.Slot
		bad  miniheap.Slot
	}{
		{"wrong bin index", binned.Slot(miniheap.BinSlot), miniheap.Slot{Tag: uint8(tagBin0 + bin), Pos: 1}},
		{"wrong registry index", binned.Slot(miniheap.RegSlot), miniheap.Slot{Tag: tagReg, Pos: binned.Slot(miniheap.RegSlot).Pos + 1}},
		{"wrong bin tag", binned.Slot(miniheap.BinSlot), miniheap.Slot{Tag: tagFull, Pos: 0}},
		{"stale bin tag on an attached span", attached.Slot(miniheap.BinSlot), miniheap.Slot{Tag: uint8(tagBin0 + bin), Pos: 0}},
		{"bin slot cleared on a binned span", binned.Slot(miniheap.BinSlot), miniheap.Slot{}},
	}
	for _, tc := range corruptions {
		saved := *tc.slot
		*tc.slot = tc.bad
		err := g.CheckIntegrity()
		*tc.slot = saved
		if err == nil {
			t.Errorf("%s: CheckIntegrity passed", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
		if err := g.CheckIntegrity(); err != nil {
			t.Fatalf("%s: restored heap fails: %v", tc.name, err)
		}
	}
	// A span dropped from its bin but still tagged for it: the bin's own
	// members are consistent, so only the tag-to-set check can see it.
	cs := &g.classes[binned.SizeClass()]
	cs.binRemove(bin, binned)
	*binned.Slot(miniheap.BinSlot) = miniheap.Slot{Tag: uint8(tagBin0 + bin), Pos: 0}
	if err := g.CheckIntegrity(); err == nil {
		t.Error("stale bin tag on a span in no bin: CheckIntegrity passed")
	}
	*binned.Slot(miniheap.BinSlot) = miniheap.Slot{}
	cs.binAdd(binned)
	if err := g.CheckIntegrity(); err != nil {
		t.Fatalf("re-filed heap fails: %v", err)
	}
}

func TestCheckIntegrityAfterChurn(t *testing.T) {
	g, _ := testHeap(t, nil)
	th := NewThreadHeap(g, 77)
	rnd := uint64(99)
	var live []uint64
	for i := 0; i < 8000; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		switch {
		case rnd%4 != 0 || len(live) == 0:
			p, err := th.Malloc(int(rnd%2048) + 1)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		default:
			i := int(rnd/13) % len(live)
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		if i%2000 == 0 {
			g.Mesh()
			if err := g.CheckIntegrity(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	for _, p := range live {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Live != 0 {
		t.Fatalf("live = %d", g.Stats().Live)
	}
}

func TestOOMUnderMemoryLimit(t *testing.T) {
	g, th := testHeap(t, nil)
	g.OS().SetMemoryLimit(8) // 8 pages = 32 KiB
	var ps []uint64
	for {
		p, err := th.Malloc(1024)
		if err != nil {
			break // budget exhausted
		}
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		t.Fatal("no allocations succeeded under limit")
	}
	if g.OS().RSSPages() > 8 {
		t.Fatalf("RSS %d pages exceeds limit", g.OS().RSSPages())
	}
	// Free everything; allocation works again.
	for _, p := range ps {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Malloc(1024); err != nil {
		t.Fatalf("allocation failed after frees: %v", err)
	}
}
