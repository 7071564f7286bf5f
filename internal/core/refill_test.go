package core

import (
	"errors"
	"testing"

	"repro/internal/harden"
	"repro/internal/miniheap"
	"repro/internal/sizeclass"
)

// detachedSpans fills n fresh spans of class from a helper heap, releases
// them, and frees the first `free` objects of each through the global
// path, so every span sits detached in its occupancy bin with exactly that
// many free slots. It returns the spans and, per span, the objects still
// live on it.
func detachedSpans(t *testing.T, g *GlobalHeap, class, n, free int) ([]*miniheap.MiniHeap, [][]uint64) {
	t.Helper()
	th := NewThreadHeap(g, 99)
	bySpan := map[*miniheap.MiniHeap][]uint64{}
	var spans []*miniheap.MiniHeap
	for i := 0; i < n*sizeclass.ObjectCount(class); i++ {
		a, err := th.mallocFromClass(class)
		if err != nil {
			t.Fatal(err)
		}
		mh := g.arena.Lookup(a)
		if _, ok := bySpan[mh]; !ok {
			spans = append(spans, mh)
		}
		bySpan[mh] = append(bySpan[mh], a)
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if len(spans) != n {
		t.Fatalf("helper heap filled %d spans, want %d", len(spans), n)
	}
	live := make([][]uint64, n)
	for i, mh := range spans {
		addrs := bySpan[mh]
		for _, a := range addrs[:free] {
			if err := g.Free(a); err != nil {
				t.Fatal(err)
			}
		}
		live[i] = addrs[free:]
	}
	return spans, live
}

// TestRefillGathersToGoal pins the multi-span refill on a class whose
// spans hold 8 objects. With only nearly full spans in the bins, one
// refill gathers spans until it holds a fresh span's worth of slots, all
// under one shard-lock hold. A free on any gathered span stays local, and
// releasing the spans takes one more hold.
func TestRefillGathersToGoal(t *testing.T) {
	g, th := testHeap(t, nil)
	g.SetMeshingEnabled(false)
	class := mustClass(t, 512)
	goal := sizeclass.ObjectCount(class)
	if goal != 8 {
		t.Fatalf("class %d holds %d objects per span, want 8", class, goal)
	}
	spans, live := detachedSpans(t, g, class, 12, 1)
	for _, mh := range spans {
		if mh.Bin() != 0 || mh.IsAttached() {
			t.Fatalf("setup span %v: bin %d, attached %v; want detached in bin 0", mh, mh.Bin(), mh.IsAttached())
		}
	}

	before := g.ShardAcquires()
	if err := th.refill(class); err != nil {
		t.Fatal(err)
	}
	if got := g.ShardAcquires() - before; got != 1 {
		t.Fatalf("gather took %d shard-lock acquisitions, want 1", got)
	}
	sv := th.svs[class]
	if sv.Remaining() < goal {
		t.Fatalf("refill reserved %d slots, want at least %d", sv.Remaining(), goal)
	}
	attached := append([]*miniheap.MiniHeap(nil), th.attached[class]...)
	if len(attached) != goal {
		t.Fatalf("refill gathered %d spans of one free slot each, want %d", len(attached), goal)
	}

	// Every reserved slot is on a distinct gathered span; a local free of
	// each takes no shard lock and queues nothing.
	var addrs []uint64
	onSpan := map[*miniheap.MiniHeap]bool{}
	for !sv.IsExhausted() {
		a, err := th.Malloc(512)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
		onSpan[g.arena.Lookup(a)] = true
	}
	for _, mh := range attached {
		if !onSpan[mh] {
			t.Fatalf("no reserved slot came from attached span %v", mh)
		}
	}
	before, queued := g.ShardAcquires(), g.RemoteQueued()
	for _, a := range addrs {
		if err := th.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.ShardAcquires(); got != before {
		t.Fatalf("shard acquires %d -> %d across local frees on gathered spans", before, got)
	}
	if got := g.RemoteQueued(); got != queued {
		t.Fatalf("remote queued %d -> %d across local frees", queued, got)
	}
	if sv.Remaining() != len(addrs) {
		t.Fatalf("vector holds %d slots after %d local frees", sv.Remaining(), len(addrs))
	}

	before = g.ShardAcquires()
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if got := g.ShardAcquires() - before; got != 1 {
		t.Fatalf("releasing %d spans took %d shard-lock acquisitions, want 1", len(attached), got)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatalf("after Done: %v", err)
	}
	for _, addrs := range live {
		for _, a := range addrs {
			if err := g.Free(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := g.Stats(); st.Live != 0 || st.Allocs != st.Frees {
		t.Fatalf("live %d, allocs %d, frees %d after freeing everything", st.Live, st.Allocs, st.Frees)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestFreshRefillShardAcquires pins what a refill costs in shard-lock
// acquisitions when the bins are empty: one to find them empty and one to
// register the fresh span, plus one to release the exhausted spans first.
// One bins check decides between gathering and a fresh span; checking the
// bins twice would add an acquisition to every fresh refill.
func TestFreshRefillShardAcquires(t *testing.T) {
	g, th := testHeap(t, nil)
	g.SetMeshingEnabled(false)
	for _, size := range []int{16, 512} {
		class := mustClass(t, size)
		before := g.ShardAcquires()
		if err := th.refill(class); err != nil {
			t.Fatal(err)
		}
		if got := g.ShardAcquires() - before; got != 2 {
			t.Fatalf("%d B: first refill took %d shard-lock acquisitions, want 2", size, got)
		}
		for !th.svs[class].IsExhausted() {
			if _, err := th.Malloc(size); err != nil {
				t.Fatal(err)
			}
		}
		// The exhausted span is full, so it goes to the full set and the
		// bins stay empty.
		before = g.ShardAcquires()
		if err := th.refill(class); err != nil {
			t.Fatal(err)
		}
		if got := g.ShardAcquires() - before; got != 3 {
			t.Fatalf("%d B: refill after exhaustion took %d shard-lock acquisitions, want 3", size, got)
		}
		if n := len(th.attached[class]); n != 1 {
			t.Fatalf("%d B: fresh refill attached %d spans, want 1", size, n)
		}
	}
}

// TestHardenRetireOneOfGathered contains a canary violation on one of
// several gathered spans: only that span is retired, the class's other
// spans go back to the bins with their reserved slots cleared, and the
// next malloc refills from them.
func TestHardenRetireOneOfGathered(t *testing.T) {
	g, th := testHeap(t, nil)
	g.SetMeshingEnabled(false)
	g.Harden().SetEnabled(true)
	class := mustClass(t, 512)
	spans, live := detachedSpans(t, g, class, 6, 2)
	liveOn := map[*miniheap.MiniHeap][]uint64{}
	for i, mh := range spans {
		liveOn[mh] = live[i]
	}
	if err := th.refill(class); err != nil {
		t.Fatal(err)
	}
	gathered := append([]*miniheap.MiniHeap(nil), th.attached[class]...)
	if len(gathered) < 2 {
		t.Fatalf("refill gathered %d spans, want at least 2", len(gathered))
	}
	for _, mh := range gathered {
		if !mh.Hardened() {
			t.Fatalf("span %v not hardened", mh)
		}
	}

	// Overflow one object into its trailing canary, then free it.
	p, err := th.mallocFromClass(class)
	if err != nil {
		t.Fatal(err)
	}
	bad := g.arena.Lookup(p)
	if err := g.OS().Write(p+uint64(bad.ObjectSize()-harden.CanarySize), []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); !errors.Is(err, ErrHeapCorruption) {
		t.Fatalf("free of overflowed object = %v, want ErrHeapCorruption", err)
	}

	if !bad.IsRetired() {
		t.Fatal("corrupt span not retired")
	}
	if st := g.HardenStats(); st.Retired != 1 || st.LostObjects != uint64(len(liveOn[bad])+1) {
		t.Fatalf("retired %d spans, lost %d objects; want 1 span, %d objects",
			st.Retired, st.LostObjects, len(liveOn[bad])+1)
	}
	if n := len(th.attached[class]); n != 0 || !th.svs[class].IsExhausted() {
		t.Fatalf("%d spans still attached, %d slots still reserved after the violation",
			n, th.svs[class].Remaining())
	}
	for _, mh := range gathered {
		if mh == bad {
			continue
		}
		if mh.IsRetired() || mh.IsAttached() || mh.OwnedBy(&th.sink) {
			t.Fatalf("span %v: retired %v, attached %v after a violation on another span",
				mh, mh.IsRetired(), mh.IsAttached())
		}
		if tag := mh.Slot(miniheap.BinSlot).Tag; tag < tagBin0 || tag >= tagFull {
			t.Fatalf("span %v filed under tag %d, want an occupancy bin", mh, tag)
		}
		if got, want := mh.InUse(), len(liveOn[mh]); got != want {
			t.Fatalf("span %v has %d bits set, want its %d live objects (reserved bits not cleared)",
				mh, got, want)
		}
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	q, err := th.mallocFromClass(class)
	if err != nil {
		t.Fatalf("malloc after containment: %v", err)
	}
	if g.arena.Lookup(q) == bad {
		t.Fatal("malloc after containment served from the retired span")
	}
	if err := th.Free(q); err != nil {
		t.Fatal(err)
	}
	for mh, addrs := range liveOn {
		if mh == bad {
			continue
		}
		for _, a := range addrs {
			if err := th.Free(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Live != 0 {
		t.Fatalf("live = %d after freeing every object not lost to retirement", st.Live)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
