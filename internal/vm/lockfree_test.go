package vm

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pagemap"
)

// leafPages is the number of pages one internal/pagemap leaf covers.
const leafPages = 1 << 15

// TestRadixTableEdgeCases drives translation through the radix table's
// corners: address 0 and other wild pointers below the arena base, unmapped
// gaps between reservations (the guard pages), span boundaries where a run
// must stop, leaf boundaries inside the tree, and the top of the table's
// 16 TiB range.
func TestRadixTableEdgeCases(t *testing.T) {
	o := NewOS()
	v1 := o.Reserve(2)
	if _, err := o.Commit(v1, 2); err != nil {
		t.Fatal(err)
	}
	v2 := o.Reserve(1) // separated from v1 by a guard page
	if _, err := o.Commit(v2, 1); err != nil {
		t.Fatal(err)
	}

	topOfArena := uint64(baseVPN+pagemap.MaxPages) << PageShift

	cases := []struct {
		name    string
		addr    uint64
		len     int
		wantErr error // nil = access must succeed
	}{
		{"address zero", 0, 1, ErrUnmapped},
		{"below arena base", ArenaBase - PageSize, 1, ErrUnmapped},
		{"just below base", ArenaBase - 1, 1, ErrUnmapped},
		{"first mapped byte", v1, 1, nil},
		{"span interior", v1 + PageSize - 1, 2, nil}, // crosses page inside span
		{"whole span", v1, 2 * PageSize, nil},
		{"last mapped byte", v1 + 2*PageSize - 1, 1, nil},
		{"read past span end", v1 + 2*PageSize - 1, 2, ErrUnmapped}, // runs into the guard gap
		{"guard gap", v1 + 2*PageSize, 1, ErrUnmapped},
		{"second reservation", v2, PageSize, nil},
		{"far unmapped page", v2 + 100*PageSize, 1, ErrUnmapped},
		{"unallocated leaf", ArenaBase + (leafPages*3)<<PageShift, 1, ErrUnmapped},
		{"last page of table", topOfArena - PageSize, 1, ErrUnmapped},
		{"top of arena range", topOfArena, 1, ErrUnmapped},
		{"beyond table range", topOfArena + 42*PageSize, 1, ErrUnmapped},
		{"max uint64", ^uint64(0), 1, ErrUnmapped},
	}
	for _, tc := range cases {
		buf := make([]byte, tc.len)
		err := o.Read(tc.addr, buf)
		if tc.wantErr == nil {
			if err != nil {
				t.Errorf("%s: Read(%#x) = %v", tc.name, tc.addr, err)
			}
		} else if !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: Read(%#x) = %v, want %v", tc.name, tc.addr, err, tc.wantErr)
		}
		// Writes must agree with reads on mappedness.
		werr := o.Write(tc.addr, buf)
		if (werr == nil) != (err == nil) {
			t.Errorf("%s: Write err %v disagrees with Read err %v", tc.name, werr, err)
		}
	}

	// A span mapped at the very edge of a leaf must translate across the
	// leaf boundary with a run that spans two leaves.
	edgeVPN := uint64(baseVPN + 2*leafPages - 1)
	edge := edgeVPN << PageShift
	if _, err := o.Commit(edge, 2); err != nil {
		t.Fatal(err)
	}
	msg := []byte("leaf-boundary crossing")
	if err := o.Write(edge+PageSize-4, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := o.Read(edge+PageSize-4, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("leaf-boundary round trip: %q, %v", got, err)
	}
}

// TestTranslationStatsCount checks stats.vm.translations counts one
// translation per page run (not per page, not per call) and that retries
// stay zero without concurrent page-table mutation.
func TestTranslationStatsCount(t *testing.T) {
	o := NewOS()
	v := o.Reserve(4)
	if _, err := o.Commit(v, 4); err != nil {
		t.Fatal(err)
	}
	base := o.Snapshot().Translations
	// One 4-page read through a single span: one run, one translation.
	buf := make([]byte, 4*PageSize)
	if err := o.Read(v, buf); err != nil {
		t.Fatal(err)
	}
	if got := o.Snapshot().Translations - base; got != 1 {
		t.Fatalf("4-page single-span read took %d translations, want 1", got)
	}
	// A one-byte write: also exactly one.
	base = o.Snapshot().Translations
	if err := o.SetByte(v, 1); err != nil {
		t.Fatal(err)
	}
	if got := o.Snapshot().Translations - base; got != 1 {
		t.Fatalf("SetByte took %d translations, want 1", got)
	}
	if r := o.Snapshot().Retries; r != 0 {
		t.Fatalf("retries = %d on an uncontended OS", r)
	}
}

// TestDataPathAcquiresNoMutex is the lock-freedom guarantee, tested
// directly: with the page-table mutex held, every data-path operation —
// Read, Write, ByteAt, SetByte, Memset, ProtAt — must still complete.
// Before the radix/seqlock rewrite each of them blocked here.
func TestDataPathAcquiresNoMutex(t *testing.T) {
	o := NewOS()
	v := o.Reserve(2)
	if _, err := o.Commit(v, 2); err != nil {
		t.Fatal(err)
	}

	o.mu.Lock()
	defer o.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		if err := o.Read(v, buf); err != nil {
			done <- err
			return
		}
		if err := o.Write(v+100, buf); err != nil {
			done <- err
			return
		}
		if _, err := o.ByteAt(v + PageSize); err != nil {
			done <- err
			return
		}
		if err := o.SetByte(v+PageSize, 7); err != nil {
			done <- err
			return
		}
		if err := o.Memset(v, 0xCC, 2*PageSize); err != nil {
			done <- err
			return
		}
		if _, err := o.ProtAt(v); err != nil {
			done <- err
			return
		}
		done <- nil
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("data path failed under held mutex: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("data path blocked on the page-table mutex")
	}
}

// TestSeqlockStressMeshRace is the -race stress for the lock-free data
// path: writer, memset, and reader goroutines hammer live "objects" while
// a mesher thread runs full protect→copy→remap→punch cycles over the
// spans underneath them, exactly the §4.5.2 window. The invariants:
//
//   - no access ever errors,
//   - a write is never lost or torn: its author reads the full stamp back
//     even when the span was relocated mid-write (the fault + drain
//     protocol),
//   - static objects read exact contents across every mesh (§4.5.2:
//     contents never change across a mesh — a torn read straddling a
//     remap would surface the not-yet-copied or stale span),
//   - the counters stay coherent.
//
// Each object has a single owner goroutine (writers never share bytes
// with readers — concurrent access to the same object is an application
// race in this model, exactly as with real memory).
func TestSeqlockStressMeshRace(t *testing.T) {
	o := NewOS()
	const pages = 2
	v := o.Reserve(pages)
	cur, err := o.Commit(v, pages)
	if err != nil {
		t.Fatal(err)
	}

	// The write barrier: writers that fault wait until the cycle ends.
	var barrier sync.Mutex
	o.SetFaultHook(func(addr uint64) {
		barrier.Lock()
		//lint:ignore SA2001 empty critical section is the wait itself
		barrier.Unlock()
	})

	const (
		objA   = 0                // written with Write: page 0, low half
		objB   = PageSize + 512   // written with Memset: page 1, interior
		objC   = 2048             // static: page 0, high half
		objD   = 2*PageSize - 128 // static: straddles nothing but ends the span
		objLen = 128
		rounds = 200
	)
	// Static objects: fixed patterns no goroutine ever rewrites.
	if err := o.Memset(v+objC, 0xC3, objLen); err != nil {
		t.Fatal(err)
	}
	if err := o.Memset(v+objD, 0xD4, objLen); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup

	// Writer goroutine per object: write a sequence-stamped pattern, read
	// it back, verify atomicity of own writes across racing relocations.
	writer := func(off uint64, useMemset bool) {
		defer wg.Done()
		var seq byte
		buf := make([]byte, objLen)
		got := make([]byte, objLen)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			if useMemset {
				if err := o.Memset(v+off, seq, objLen); err != nil {
					errs <- err
					return
				}
			} else {
				for i := range buf {
					buf[i] = seq
				}
				if err := o.Write(v+off, buf); err != nil {
					errs <- err
					return
				}
			}
			if err := o.Read(v+off, got); err != nil {
				errs <- err
				return
			}
			for i := range got {
				if got[i] != seq {
					errs <- errors.New("torn or lost write: stale byte after own write")
					return
				}
			}
		}
	}
	// Reader goroutine per static object: contents must hold bit-exact
	// through every relocation underneath.
	reader := func(off uint64, want byte) {
		defer wg.Done()
		got := make([]byte, objLen)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := o.Read(v+off, got); err != nil {
				errs <- err
				return
			}
			for i := range got {
				if got[i] != want {
					errs <- errors.New("read observed wrong span contents across mesh")
					return
				}
			}
		}
	}

	wg.Add(4)
	go writer(objA, false)
	go writer(objB, true)
	go reader(objC, 0xC3)
	go reader(objD, 0xD4)

	// Mesher: repeatedly relocate the live spans onto fresh physical
	// spans — protect, copy at the physical layer, remap, punch — the
	// full §4.5.2 cycle under the barrier.
	for r := 0; r < rounds; r++ {
		barrier.Lock()
		if err := o.Protect(v, pages, ReadOnly); err != nil {
			t.Fatal(err)
		}
		vNew := o.Reserve(pages)
		next, err := o.Commit(vNew, pages)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.Unmap(vNew, pages); err != nil {
			t.Fatal(err)
		}
		if err := o.CopyPhys(next, 0, cur, 0, pages*PageSize); err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.Remap(v, pages, next); err != nil {
			t.Fatal(err)
		}
		if err := o.Punch(cur); err != nil {
			t.Fatal(err)
		}
		cur = next
		barrier.Unlock()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	st := o.Snapshot()
	if st.Remaps < rounds {
		t.Fatalf("remaps = %d, want >= %d", st.Remaps, rounds)
	}
	t.Logf("translations=%d retries=%d faults=%d remaps=%d",
		st.Translations, st.Retries, st.Faults, st.Remaps)
}

// TestSeqlockRetryOnRemap forces the narrow race deterministically: a
// reader that resolved its PTE before a remap must retry and return the
// new span's contents, never the stale span's.
func TestSeqlockRetryOnRemap(t *testing.T) {
	o := NewOS()
	v := o.Reserve(1)
	src, err := o.Commit(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Memset(v, 0xA1, PageSize); err != nil {
		t.Fatal(err)
	}
	vNew := o.Reserve(1)
	dst, err := o.Commit(vNew, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.Unmap(vNew, 1); err != nil {
		t.Fatal(err)
	}
	// Contents equal across the mesh per §4.5.2 — but then diverge the
	// stale span so a non-retried read would be caught.
	if err := o.CopyPhys(dst, 0, src, 0, PageSize); err != nil {
		t.Fatal(err)
	}

	var readers sync.WaitGroup
	stop := make(chan struct{})
	fail := atomic.Bool{}
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			got := make([]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := o.Read(v, got); err != nil {
					fail.Store(true)
					return
				}
				for _, b := range got {
					if b != 0xA1 {
						fail.Store(true)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if _, _, err := o.Remap(v, 1, dst); err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.Remap(v, 1, src); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	if fail.Load() {
		t.Fatal("reader observed stale or failed translation across remap")
	}
}
