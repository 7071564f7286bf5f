package core

import (
	"sync"
	"testing"

	"repro/internal/miniheap"
	"repro/internal/sizeclass"
)

// TestRemoteQueueBasic: a cross-thread free of an object on an attached
// span is queued — accounted immediately, bitmap untouched — and the
// owner's drain recycles it.
func TestRemoteQueueBasic(t *testing.T) {
	g, owner := testHeap(t, nil)
	addr, err := owner.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	other := NewThreadHeap(g, 2)
	if err := other.Free(addr); err != nil {
		t.Fatal(err)
	}
	// The free is complete from the caller's (and Stats') perspective…
	if st := g.Stats(); st.Live != 0 || st.Frees != 1 {
		t.Fatalf("after queued free: live=%d frees=%d", st.Live, st.Frees)
	}
	if got := g.RemoteQueued(); got != 1 {
		t.Fatalf("RemoteQueued = %d, want 1", got)
	}
	if got := owner.PendingRemoteFrees(); got != 1 {
		t.Fatalf("PendingRemoteFrees = %d, want 1", got)
	}
	// …but the slot is still reserved (bit set) until the owner drains.
	mh := g.arena.Lookup(addr)
	off, _ := mh.OffsetOf(addr)
	if !mh.Bitmap().IsSet(off) {
		t.Fatal("queued free cleared the bitmap bit before the drain")
	}
	if n := owner.DrainRemoteFrees(); n != 1 {
		t.Fatalf("DrainRemoteFrees = %d, want 1", n)
	}
	if got := g.RemoteDrained(); got != 1 {
		t.Fatalf("RemoteDrained = %d, want 1", got)
	}
	// The drained slot is immediately reusable by the owner.
	if _, err := owner.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if err := owner.Done(); err != nil {
		t.Fatal(err)
	}
	if err := other.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteDrainOnRefill: when remote frees restock an exhausted shuffle
// vector, the malloc slow path drains them and keeps the same span
// attached instead of detaching — the span-recycling property that lets a
// producer–consumer pipeline run on a fixed working set.
func TestRemoteDrainOnRefill(t *testing.T) {
	g, producer := testHeap(t, nil)
	consumer := NewThreadHeap(g, 2)
	class := mustClass(t, 64)
	count := sizeclass.ObjectCount(class)

	// Exhaust the first span exactly.
	addrs := make([]uint64, 0, count)
	for i := 0; i < count; i++ {
		a, err := producer.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if refills := producer.Refills(); refills != 1 {
		t.Fatalf("refills = %d after exactly one span, want 1", refills)
	}
	mh := g.arena.Lookup(addrs[0])

	// Consumer frees everything; all of it queues on the producer.
	for _, a := range addrs {
		if err := consumer.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if got := producer.PendingRemoteFrees(); got != count {
		t.Fatalf("pending = %d, want %d", got, count)
	}

	// The next malloc hits the slow path, drains, and must reuse the same
	// span: no new refill, same MiniHeap resolved for the new object.
	a, err := producer.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if refills := producer.Refills(); refills != 1 {
		t.Fatalf("refills = %d after drain-restock, want still 1", refills)
	}
	if got := g.arena.Lookup(a); got != mh {
		t.Fatalf("drain-restocked malloc came from a different span (%v != %v)", got, mh)
	}
	if err := producer.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := producer.Done(); err != nil {
		t.Fatal(err)
	}
	if err := consumer.Done(); err != nil {
		t.Fatal(err)
	}
	if live := g.Stats().Live; live != 0 {
		t.Fatalf("live = %d", live)
	}
	if q, d := g.RemoteQueued(), g.RemoteDrained(); q != d {
		t.Fatalf("queued %d != drained %d at quiescence", q, d)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteFallbackAfterDetach: entries queued for a span the owner has
// since released are settled through the shard-locked path by address, and
// pushes arriving after Done fall back immediately (closed queue) — the
// free is never lost on either side of the race.
func TestRemoteFallbackAfterDetach(t *testing.T) {
	g, owner := testHeap(t, nil)
	other := NewThreadHeap(g, 2)

	a1, err := owner.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := owner.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}

	// Queue one free, then force the owner past the span: Done closes the
	// queue and settles the entry while the span is still attached.
	if err := other.Free(a1); err != nil {
		t.Fatal(err)
	}
	if err := owner.Done(); err != nil {
		t.Fatal(err)
	}
	if q, d := g.RemoteQueued(), g.RemoteDrained(); q != 1 || d != 1 {
		t.Fatalf("queued/drained = %d/%d, want 1/1", q, d)
	}

	// The span is now detached: a new cross-thread free must take the
	// locked path (owner withdrawn), not queue.
	if err := other.Free(a2); err != nil {
		t.Fatal(err)
	}
	if q := g.RemoteQueued(); q != 1 {
		t.Fatalf("free of detached span queued (RemoteQueued = %d)", q)
	}
	if live := g.Stats().Live; live != 0 {
		t.Fatalf("live = %d", live)
	}
	if err := other.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteQueueReopensAfterDone: Done closes the queue; the next attach
// reopens it, so a long-lived Thread that quiesces and resumes gets the
// message-passing path back.
func TestRemoteQueueReopensAfterDone(t *testing.T) {
	g, owner := testHeap(t, nil)
	other := NewThreadHeap(g, 2)
	if _, err := owner.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if err := owner.Done(); err != nil {
		t.Fatal(err)
	}
	// Reattached after Done…
	addr, err := owner.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// …so cross-thread frees queue again.
	if err := other.Free(addr); err != nil {
		t.Fatal(err)
	}
	if q := g.RemoteQueued(); q != 1 {
		t.Fatalf("RemoteQueued = %d after reopen, want 1", q)
	}
	if err := owner.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteStressPushVsDetach is the litmus stress for the queue
// protocol: pushers race the owner's refill/Done churn and a concurrent
// mesher. The lost-free check is exact accounting — every allocated object
// is freed exactly once, so at the end live bytes are zero, frees equal
// allocs, queued equals drained, and no free was reported invalid (a
// double-settled entry would surface as a double free; a lost one as
// nonzero live bytes). Run with -race to check the memory-model side.
func TestRemoteStressPushVsDetach(t *testing.T) {
	g, owner := testHeap(t, nil)

	const (
		pushers  = 4
		rounds   = 300
		batchLen = 24
	)
	ring := make(chan []uint64, 2*pushers)
	var pusherWG sync.WaitGroup
	errc := make(chan error, pushers+1)

	for p := 0; p < pushers; p++ {
		pusherWG.Add(1)
		go func(p int) {
			defer pusherWG.Done()
			th := NewThreadHeap(g, uint64(100+p))
			for batch := range ring {
				for _, a := range batch {
					if err := th.Free(a); err != nil {
						errc <- err
						return
					}
				}
			}
			if err := th.Done(); err != nil {
				errc <- err
			}
		}(p)
	}

	// A concurrent mesher churns detached spans so stale queue entries
	// race reassignment and destruction underneath the drains.
	stopMesh := make(chan struct{})
	var meshWG sync.WaitGroup
	meshWG.Add(1)
	go func() {
		defer meshWG.Done()
		for {
			select {
			case <-stopMesh:
				return
			default:
				g.Mesh()
			}
		}
	}()

	var total uint64
	sizes := []int{16, 64, 256}
	for r := 0; r < rounds; r++ {
		batch := make([]uint64, 0, batchLen)
		for i := 0; i < batchLen; i++ {
			a, err := owner.Malloc(sizes[i%len(sizes)])
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, a)
		}
		total += batchLen
		ring <- batch
		switch r % 8 {
		case 3:
			owner.DrainRemoteFrees()
		case 7:
			// Done closes the queue mid-flight; racing pushes must fall
			// back to the locked path without losing frees. The next
			// malloc reattaches and reopens.
			if err := owner.Done(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(ring)
	pusherWG.Wait()
	close(stopMesh)
	meshWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := owner.Done(); err != nil {
		t.Fatal(err)
	}
	g.Mesh()

	st := g.Stats()
	if st.InvalidFree != 0 {
		t.Fatalf("%d invalid/double frees under clean traffic (double-settled queue entry?)", st.InvalidFree)
	}
	if st.Allocs != total || st.Frees != total {
		t.Fatalf("allocs/frees = %d/%d, want %d/%d (lost free?)", st.Allocs, st.Frees, total, total)
	}
	if st.Live != 0 {
		t.Fatalf("live = %d after full drain (lost free)", st.Live)
	}
	if st.Remote.Queued != st.Remote.Drained {
		t.Fatalf("queued %d != drained %d at quiescence", st.Remote.Queued, st.Remote.Drained)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteStressGatheredSpans is the queue litmus stress for an owner
// whose refills gather several spans of one class. Pushers free objects
// on every span the owner has attached while the owner drains, refills and
// calls Done. Each refill releases the class's spans and gathers again, so
// a span with frees still queued is often re-attached at a different index
// of the attached list, and the drain must settle those entries under the
// index the span holds now. A concurrent mesher churns the detached spans.
// At quiescence the accounting is exact: allocs == frees, queued ==
// drained, nothing live and no invalid free. Run with -race to check the
// memory-model side.
func TestRemoteStressGatheredSpans(t *testing.T) {
	g, owner := testHeap(t, nil)

	const (
		pushers  = 4
		rounds   = 300
		batchLen = 16
		size     = 512
	)
	class := mustClass(t, size)
	// Six of each span's eight slots stay live until the end, so the bins
	// hold only nearly full spans and every refill gathers several.
	_, keep := detachedSpans(t, g, class, 32, 2)

	ring := make(chan []uint64, 2*pushers)
	var pusherWG sync.WaitGroup
	errc := make(chan error, pushers)
	for p := 0; p < pushers; p++ {
		pusherWG.Add(1)
		go func(p int) {
			defer pusherWG.Done()
			th := NewThreadHeap(g, uint64(100+p))
			for batch := range ring {
				for _, a := range batch {
					if err := th.Free(a); err != nil {
						errc <- err
						return
					}
				}
			}
			if err := th.Done(); err != nil {
				errc <- err
			}
		}(p)
	}
	stopMesh := make(chan struct{})
	var meshWG sync.WaitGroup
	meshWG.Add(1)
	go func() {
		defer meshWG.Done()
		for {
			select {
			case <-stopMesh:
				return
			default:
				g.Mesh()
			}
		}
	}()

	// index records the attached-list index each span last held, to count
	// spans re-attached at a different one.
	index := map[*miniheap.MiniHeap]int{}
	gathers, moves := 0, 0
	refills := owner.Refills()
	for r := 0; r < rounds; r++ {
		batch := make([]uint64, 0, batchLen)
		for i := 0; i < batchLen; i++ {
			a, err := owner.Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, a)
			if n := owner.Refills(); n != refills {
				refills = n
				spans := owner.attached[class]
				if len(spans) > 1 {
					gathers++
				}
				for k, mh := range spans {
					if j, ok := index[mh]; ok && j != k {
						moves++
					}
					index[mh] = k
				}
			}
		}
		ring <- batch
		switch r % 8 {
		case 3:
			owner.DrainRemoteFrees()
		case 7:
			if err := owner.Done(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(ring)
	pusherWG.Wait()
	close(stopMesh)
	meshWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for _, addrs := range keep {
		for _, a := range addrs {
			if err := owner.Free(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := owner.Done(); err != nil {
		t.Fatal(err)
	}
	g.Mesh()

	if gathers == 0 || moves == 0 {
		t.Fatalf("%d refills gathered several spans and %d spans moved index; the stress needs both", gathers, moves)
	}
	t.Logf("%d refills gathered several spans; %d re-attachments moved a span's index", gathers, moves)
	st := g.Stats()
	if st.Remote.Queued == 0 {
		t.Fatal("no free was queued: the stress never reached the remote queue")
	}
	if st.InvalidFree != 0 {
		t.Fatalf("%d invalid/double frees under clean traffic (entry settled on the wrong span?)", st.InvalidFree)
	}
	if st.Allocs != st.Frees || st.Live != 0 {
		t.Fatalf("allocs %d, frees %d, live %d at quiescence (lost free?)", st.Allocs, st.Frees, st.Live)
	}
	if st.Remote.Queued != st.Remote.Drained {
		t.Fatalf("queued %d != drained %d at quiescence", st.Remote.Queued, st.Remote.Drained)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteBatchHonorsSegmentFault pins the remote.segment fault site on
// the batch path: with every segment allocation failing, a FreeBatch of
// cross-thread frees queues nothing, diverts to the shard-locked batch
// path, and still settles every object with exact accounting.
func TestRemoteBatchHonorsSegmentFault(t *testing.T) {
	g, owner := testHeap(t, nil)
	armFaults(t, g, "remote.segment")
	other := NewThreadHeap(g, 2)
	var addrs []uint64
	for _, size := range []int{64, 64, 64, 256, 256, 256} {
		a, err := owner.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if err := other.FreeBatch(addrs); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Remote.Queued != 0 {
		t.Fatalf("queued %d frees with every segment allocation failing", st.Remote.Queued)
	}
	if g.Faults().Injected() == 0 {
		t.Fatal("the batch path never evaluated remote.segment")
	}
	if st.Live != 0 || st.Allocs != st.Frees || st.InvalidFree != 0 {
		t.Fatalf("live=%d allocs=%d frees=%d invalid=%d, want exact accounting",
			st.Live, st.Allocs, st.Frees, st.InvalidFree)
	}
	for _, th := range []*ThreadHeap{owner, other} {
		if err := th.Done(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteStaleDoubleFreeDropped covers a caller double free whose two
// queued entries settle by address: the owner detached the span between
// the pushes and its drain (the push/detach race, replayed here by taking
// the segments before Done). The locked path rejects the duplicate; the
// drain must count it in InvalidFree and drop it, unwinding its
// enqueue-time accounting, so the books still close.
func TestRemoteStaleDoubleFreeDropped(t *testing.T) {
	g, owner := testHeap(t, nil)
	g.SetMeshingEnabled(false)
	other := NewThreadHeap(g, 2)
	addr, err := owner.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := other.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	segs := owner.remote.take()
	if err := owner.Done(); err != nil {
		t.Fatal(err)
	}
	if n := owner.drainRemote(segs); n != 1 {
		t.Fatalf("drained %d entries, want 1 (the duplicate dropped)", n)
	}
	if err := other.Done(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.InvalidFree != 1 {
		t.Fatalf("InvalidFree = %d, want 1", st.InvalidFree)
	}
	if st.Live != 0 || st.Allocs != st.Frees {
		t.Fatalf("live=%d allocs=%d frees=%d after a dropped duplicate", st.Live, st.Allocs, st.Frees)
	}
	if st.Remote.Queued != st.Remote.Drained {
		t.Fatalf("queued %d != drained %d", st.Remote.Queued, st.Remote.Drained)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteScalarPushCoalesces pins the allocation-amortizing fast path:
// consecutive scalar remote frees to the same span reserve slots in the
// head segment in place instead of pushing a new segment per free.
func TestRemoteScalarPushCoalesces(t *testing.T) {
	g, owner := testHeap(t, nil)
	other := NewThreadHeap(g, 2)
	addrs := make([]uint64, 0, remoteSegCap+1)
	for i := 0; i < remoteSegCap+1; i++ {
		a, err := owner.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs[:remoteSegCap] {
		if err := other.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	head := owner.remote.head.Load()
	if head == nil || head.committed.Load() != remoteSegCap || head.next != nil {
		t.Fatalf("want one full segment of %d entries, got %+v", remoteSegCap, head)
	}
	// The next push overflows the full segment and starts a fresh one.
	if err := other.Free(addrs[remoteSegCap]); err != nil {
		t.Fatal(err)
	}
	if head2 := owner.remote.head.Load(); head2 == head || head2.next != head {
		t.Fatalf("overflow push did not start a fresh segment on top (%p over %p)", head2, head)
	}
	if n := owner.DrainRemoteFrees(); n != remoteSegCap+1 {
		t.Fatalf("drained %d, want %d", n, remoteSegCap+1)
	}
	if err := owner.Done(); err != nil {
		t.Fatal(err)
	}
	if err := other.Done(); err != nil {
		t.Fatal(err)
	}
}
