package miniheap

import (
	"testing"
	"testing/quick"

	"repro/internal/sizeclass"
	"repro/internal/vm"
)

// class16 is the 16-byte size class index.
func class16(t *testing.T) int {
	t.Helper()
	c, ok := sizeclass.ClassForSize(16)
	if !ok {
		t.Fatal("no class for 16")
	}
	return c
}

func TestNewGeometry(t *testing.T) {
	c := class16(t)
	mh := New(c, vm.ArenaBase, 1)
	if mh.ObjectSize() != 16 || mh.ObjectCount() != 256 || mh.SpanPages() != 1 {
		t.Fatalf("geometry: %v", mh)
	}
	if mh.IsLarge() {
		t.Fatal("size-classed MiniHeap reported large")
	}
	if !mh.IsEmpty() || mh.IsFull() {
		t.Fatal("fresh MiniHeap not empty")
	}
	if mh.MeshCount() != 1 {
		t.Fatalf("MeshCount = %d", mh.MeshCount())
	}
}

func TestLargeSingleton(t *testing.T) {
	mh := NewLarge(5, vm.ArenaBase, 2)
	if !mh.IsLarge() || mh.ObjectCount() != 1 || mh.SpanPages() != 5 {
		t.Fatalf("large geometry: %v", mh)
	}
	if !mh.IsFull() {
		t.Fatal("large MiniHeap must be born full")
	}
	if mh.SizeClass() != -1 {
		t.Fatal("large size class must be -1")
	}
}

func TestAddrOffsetRoundTrip(t *testing.T) {
	c, _ := sizeclass.ClassForSize(256)
	base := uint64(vm.ArenaBase)
	mh := New(c, base, 1)
	f := func(raw uint8) bool {
		off := int(raw) % mh.ObjectCount()
		addr := mh.AddrOf(off)
		got, err := mh.OffsetOf(addr)
		return err == nil && got == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetOfRejectsBadPointers(t *testing.T) {
	c, _ := sizeclass.ClassForSize(256)
	base := uint64(vm.ArenaBase)
	mh := New(c, base, 1)
	if _, err := mh.OffsetOf(base + 1); err == nil {
		t.Fatal("interior pointer accepted")
	}
	if _, err := mh.OffsetOf(base - 4096); err == nil {
		t.Fatal("foreign pointer accepted")
	}
	if mh.Contains(base + uint64(mh.SpanBytes())) {
		t.Fatal("Contains accepted one-past-end")
	}
}

func TestAttachDetach(t *testing.T) {
	mh := New(class16(t), vm.ArenaBase, 1)
	mh.Attach()
	if !mh.IsAttached() {
		t.Fatal("not attached")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double attach did not panic")
			}
		}()
		mh.Attach()
	}()
	mh.Detach()
	if mh.IsAttached() {
		t.Fatal("still attached")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double detach did not panic")
			}
		}()
		mh.Detach()
	}()
}

func TestOccupancyAndBins(t *testing.T) {
	mh := New(class16(t), vm.ArenaBase, 1)
	n := mh.ObjectCount()
	fill := func(target float64) {
		mh.Bitmap().Reset()
		for i := 0; i < int(target*float64(n)); i++ {
			mh.Bitmap().TryToSet(i)
		}
	}
	cases := []struct {
		occ float64
		bin int
	}{
		{0.90, 0}, {0.76, 0}, {0.60, 1}, {0.51, 1}, {0.40, 2}, {0.26, 2}, {0.10, 3}, {0.0, 3},
	}
	for _, c := range cases {
		fill(c.occ)
		if got := mh.Bin(); got != c.bin {
			t.Errorf("occupancy %.2f: bin %d, want %d", c.occ, got, c.bin)
		}
	}
}

func TestMeshablePredicate(t *testing.T) {
	c := class16(t)
	a := New(c, vm.ArenaBase, 1)
	b := New(c, vm.ArenaBase+0x10000, 2)
	// Disjoint bitmaps mesh.
	a.Bitmap().TryToSet(0)
	b.Bitmap().TryToSet(1)
	if !a.Meshable(b) || !b.Meshable(a) {
		t.Fatal("disjoint spans not meshable")
	}
	// Overlapping offset blocks meshing.
	b.Bitmap().TryToSet(0)
	if a.Meshable(b) {
		t.Fatal("overlapping spans meshable")
	}
	b.Bitmap().Unset(0)
	// Self and same-phys never mesh.
	if a.Meshable(a) {
		t.Fatal("self-mesh")
	}
	samePhys := New(c, vm.ArenaBase+0x20000, 1)
	if a.Meshable(samePhys) {
		t.Fatal("same physical span meshable")
	}
	// Attached spans never mesh.
	b.Attach()
	if a.Meshable(b) {
		t.Fatal("attached span meshable")
	}
	b.Detach()
	// Different size classes never mesh.
	c2, _ := sizeclass.ClassForSize(48)
	other := New(c2, vm.ArenaBase+0x30000, 3)
	if a.Meshable(other) {
		t.Fatal("cross-class mesh")
	}
	// Large objects never mesh.
	lg1 := NewLarge(1, vm.ArenaBase+0x40000, 4)
	lg2 := NewLarge(1, vm.ArenaBase+0x50000, 5)
	if lg1.Meshable(lg2) {
		t.Fatal("large objects meshable")
	}
}

func TestAbsorbSpansAndContains(t *testing.T) {
	c := class16(t)
	dst := New(c, vm.ArenaBase, 1)
	src := New(c, vm.ArenaBase+0x10000, 2)
	srcAddr := src.AddrOf(7)
	dst.AbsorbSpans(src)
	if dst.MeshCount() != 2 {
		t.Fatalf("MeshCount = %d", dst.MeshCount())
	}
	if !dst.Contains(srcAddr) {
		t.Fatal("absorbed span address not contained")
	}
	off, err := dst.OffsetOf(srcAddr)
	if err != nil || off != 7 {
		t.Fatalf("OffsetOf absorbed addr = %d, %v", off, err)
	}
	// New allocations still mint addresses from the primary span.
	if dst.AddrOf(7) != dst.SpanStart()+7*16 {
		t.Fatal("AddrOf not using primary span")
	}
}

func TestUniqueIDs(t *testing.T) {
	c := class16(t)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		mh := New(c, vm.ArenaBase, vm.PhysID(i+1))
		if seen[mh.ID()] {
			t.Fatal("duplicate MiniHeap id")
		}
		seen[mh.ID()] = true
	}
}

// TestOffsetOfReciprocalMatchesDivision sweeps every size class and every
// byte of one span, checking the multiply-shift quotient path agrees with
// plain division on slot starts, interior pointers, and the tail-waste
// region past the last object.
func TestOffsetOfReciprocalMatchesDivision(t *testing.T) {
	for c := 0; c < sizeclass.NumClasses; c++ {
		mh := New(c, vm.ArenaBase, 1)
		if mh.objRecip == 0 {
			t.Fatalf("class %d: no reciprocal despite in-bound geometry", c)
		}
		objSize := mh.ObjectSize()
		stride := 1
		if objSize > 256 {
			stride = 7 // sample large classes; keep the sweep fast
		}
		for rel := 0; rel < mh.SpanBytes(); rel += stride {
			off, err := mh.OffsetOf(vm.ArenaBase + uint64(rel))
			wantOff := rel / objSize
			wantErr := rel%objSize != 0 || wantOff >= mh.ObjectCount()
			if wantErr {
				if err == nil {
					t.Fatalf("class %d rel %d: expected error, got offset %d", c, rel, off)
				}
				continue
			}
			if err != nil {
				t.Fatalf("class %d rel %d: %v", c, rel, err)
			}
			if off != wantOff {
				t.Fatalf("class %d rel %d: offset %d, want %d", c, rel, off, wantOff)
			}
		}
	}
}

// TestOffsetOfLargeFallback checks singleton MiniHeaps past the reciprocal
// exactness bound (16+ pages) fall back to division and still translate.
func TestOffsetOfLargeFallback(t *testing.T) {
	mh := NewLarge(32, vm.ArenaBase, 1)
	if mh.objRecip != 0 {
		t.Fatal("32-page singleton should be outside the reciprocal bound")
	}
	if off, err := mh.OffsetOf(vm.ArenaBase); err != nil || off != 0 {
		t.Fatalf("OffsetOf(base) = %d, %v", off, err)
	}
	if _, err := mh.OffsetOf(vm.ArenaBase + 1); err == nil {
		t.Fatal("interior pointer accepted on large singleton")
	}
	small := NewLarge(4, vm.ArenaBase+1<<20, 2)
	if small.objRecip == 0 {
		t.Fatal("4-page singleton should use the reciprocal")
	}
	if off, err := small.OffsetOf(vm.ArenaBase + 1<<20); err != nil || off != 0 {
		t.Fatalf("OffsetOf(small base) = %d, %v", off, err)
	}
}

// BenchmarkOffsetOf measures the Free-fast-path translation with the
// precomputed reciprocal; BenchmarkOffsetOfHardwareDivide is the same
// address stream through runtime integer division, for comparison. The
// 48-byte class keeps the divisor non-power-of-two, where the win is.
func BenchmarkOffsetOf(b *testing.B) {
	c, _ := sizeclass.ClassForSize(48)
	mh := New(c, vm.ArenaBase, 1)
	n := uint64(mh.ObjectCount())
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := vm.ArenaBase + (uint64(i)%n)*48
		off, err := mh.OffsetOf(addr)
		if err != nil {
			b.Fatal(err)
		}
		sink += off
	}
	_ = sink
}

func BenchmarkOffsetOfHardwareDivide(b *testing.B) {
	c, _ := sizeclass.ClassForSize(48)
	mh := New(c, vm.ArenaBase, 1)
	n := uint64(mh.ObjectCount())
	base := uint64(vm.ArenaBase)
	limit := uint64(mh.SpanBytes())
	// The divisor must come out of memory, as it did on the old free
	// path (m.objSize) — a literal 48 would let the compiler strength-
	// reduce the division and benchmark the optimization against itself.
	objSize := uint64(mh.ObjectSize())
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + (uint64(i)%n)*48
		rel := addr - base
		if rel >= limit {
			b.Fatal("out of span")
		}
		if rel%objSize != 0 {
			b.Fatal("interior")
		}
		sink += int(rel / objSize)
	}
	_ = sink
}

// fakeSink is a no-op RemoteSink for owner-publication tests.
type fakeSink struct{ pushed int }

func (f *fakeSink) PushRemote(*MiniHeap, int) bool { f.pushed++; return true }
func (f *fakeSink) PushRemoteBatch(_ *MiniHeap, offs []int) int {
	f.pushed += len(offs)
	return len(offs)
}

func TestOwnerPublication(t *testing.T) {
	mh := New(class16(t), vm.ArenaBase, 1)
	if mh.Owner() != nil {
		t.Fatal("fresh MiniHeap has an owner")
	}
	sink := &fakeSink{}
	var box RemoteSink = sink
	mh.SetOwner(&box, 3)
	got := mh.Owner()
	if got == nil {
		t.Fatal("owner not published")
	}
	if !got.PushRemote(mh, 0) || sink.pushed != 1 {
		t.Fatal("published owner is not the sink that was set")
	}
	var other RemoteSink = &fakeSink{}
	if !mh.OwnedBy(&box) || mh.OwnedBy(&other) || mh.OwnerIndex() != 3 {
		t.Fatalf("OwnedBy(own)=%v OwnedBy(other)=%v index=%d, want true, false, 3",
			mh.OwnedBy(&box), mh.OwnedBy(&other), mh.OwnerIndex())
	}
	mh.SetOwner(nil, 0)
	if mh.Owner() != nil || mh.OwnedBy(&box) {
		t.Fatal("owner not withdrawn")
	}
}

// TestSpansSnapshotStableAcrossAbsorb pins the atomic-snapshot contract:
// a Spans slice taken before an AbsorbSpans stays internally consistent
// (the published slice is never mutated in place).
func TestSpansSnapshotStableAcrossAbsorb(t *testing.T) {
	c := class16(t)
	dst := New(c, vm.ArenaBase, 1)
	src := New(c, vm.ArenaBase+0x10000, 2)
	before := dst.Spans()
	dst.AbsorbSpans(src)
	if len(before) != 1 || before[0] != vm.ArenaBase {
		t.Fatalf("pre-absorb snapshot mutated: %v", before)
	}
	after := dst.Spans()
	if len(after) != 2 || after[1] != vm.ArenaBase+0x10000 {
		t.Fatalf("post-absorb snapshot wrong: %v", after)
	}
}
