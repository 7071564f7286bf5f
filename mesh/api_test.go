package mesh

import (
	"testing"
	"time"
)

func TestPublicMallocSurface(t *testing.T) {
	a := det()
	// Calloc is zeroed.
	p, err := a.Calloc(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := a.Read(p, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("calloc not zeroed")
		}
	}
	// Realloc grows preserving contents.
	if err := a.Write(p, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	q, err := a.Realloc(p, 5000)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := a.Read(q, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("realloc lost contents: %q", got)
	}
	// AlignedAlloc respects alignment.
	r, err := a.AlignedAlloc(256, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r%256 != 0 {
		t.Fatalf("misaligned: %#x", r)
	}
	// UsableSize reflects the size class.
	if u, err := a.UsableSize(q); err != nil || u < 5000 {
		t.Fatalf("usable = %d, %v", u, err)
	}
	for _, ptr := range []Ptr{q, r} {
		if err := a.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestThreadMallocSurface(t *testing.T) {
	a := det()
	th := a.NewThread()
	defer func() {
		if err := th.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	p, err := th.Calloc(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	p, err = th.Realloc(p, 300)
	if err != nil {
		t.Fatal(err)
	}
	if u, err := th.UsableSize(p); err != nil || u < 300 {
		t.Fatalf("usable %d, %v", u, err)
	}
	q, err := th.AlignedAlloc(64, 64)
	if err != nil || q%64 != 0 {
		t.Fatalf("aligned alloc: %#x, %v", q, err)
	}
	_ = th.Free(p)
	_ = th.Free(q)
}

func TestRuntimeKnobsPublic(t *testing.T) {
	clk := NewLogicalClock()
	a := New(WithSeed(1), WithClock(clk), WithMeshPeriod(time.Hour))
	// With a huge period, automatic meshing never fires; mesh.period=0
	// plus a global free re-enables it.
	if err := a.Control("mesh.period", time.Duration(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Control("mesh.enabled", false); err != nil {
		t.Fatal(err)
	}
	if a.Mesh() != 0 {
		t.Fatal("disabled allocator meshed")
	}
	if err := a.Control("mesh.enabled", true); err != nil {
		t.Fatal(err)
	}
	// Stats plumbing for the new introspection APIs.
	p, _ := a.Malloc(100)
	cs := a.ClassStats()
	total := 0
	for _, c := range cs {
		total += c.Spans
	}
	if total == 0 {
		t.Fatal("no spans visible in ClassStats")
	}
	lg, _ := a.Malloc(1 << 20)
	if ls := a.LargeObjectStats(); ls.Objects != 1 {
		t.Fatalf("large stats: %+v", ls)
	}
	_ = a.Free(p)
	_ = a.Free(lg)
}

func TestSetMemoryLimit(t *testing.T) {
	a := det()
	if err := a.Control("os.memory_limit", int64(64*1024)); err != nil { // 16 pages
		t.Fatal(err)
	}
	var ps []Ptr
	for {
		p, err := a.Malloc(4096)
		if err != nil {
			break
		}
		ps = append(ps, p)
	}
	if len(ps) == 0 || len(ps) > 16 {
		t.Fatalf("allocated %d pages under a 16-page budget", len(ps))
	}
	if err := a.Control("os.memory_limit", int64(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Malloc(4096); err != nil {
		t.Fatalf("limit removal ineffective: %v", err)
	}
}
