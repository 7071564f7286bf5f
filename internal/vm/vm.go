// Package vm simulates the operating-system virtual-memory facilities Mesh
// relies on: a per-process page table, physical page frames, mmap-style
// mapping and remapping, fallocate-style hole punching, and mprotect-style
// write protection with a fault hook.
//
// The real Mesh allocator (PLDI 2019, §4.5.1) backs its arena with a
// memfd-created temporary file so that one file offset (a physical span) can
// be mapped at several virtual addresses at once; meshing is nothing more
// than a page-table update plus a hole punch. A Go library cannot perform
// those operations on its own address space, so this package models them
// explicitly: physical spans are byte buffers, virtual pages are entries in
// a page table, and "RSS" is the count of physical pages not yet punched.
// Because meshing is purely a page-table transformation, running the
// identical algorithms against this model preserves every behaviour the
// paper measures — and makes the central invariant (virtual addresses and
// their contents never change across a mesh) directly checkable.
//
// # Lock-free translation
//
// The page table is a two-level radix tree of atomic.Pointer[pte] slots
// (internal/pagemap, the same map as internal/arena's offset-to-MiniHeap
// map). Published pte values are immutable and cache the backing span's
// []byte directly, so the data path — Read, Write, ByteAt, SetByte, Memset,
// ProtAt — translates with two atomic loads and indexes straight into the
// span's buffer: no mutex, no second physical-span lookup. This is the
// paper's premise made literal: data-path accesses never synchronize with
// the allocator (§4.5.1); on real hardware translation is the MMU.
//
// Page-table mutations still serialize on an ordinary mutex, and the ones
// that change or revoke an existing translation — Remap, Unmap, Protect —
// additionally bump a seqlock generation counter (odd while slots are being
// rewritten). A lock-free access validates the generation after its copy;
// a changed generation means the access raced a page-table mutation, so
// the result is discarded and the access retries against the new entries.
// A reader that races a mesh therefore lands on the destination span's pte
// on retry — and observes identical contents, because the engine completed
// the copy before remapping (§4.5.2: contents never change across a mesh).
//
// Writes need one more step, because a simulated store is a memcpy, not a
// single instruction: a writer advertises itself on a writer counter
// shared by the entries of one virtual mapping before copying, and
// re-validates the generation after registering. Protect(ReadOnly) — the
// first step of every mesh — and Unmap wait for the counters of the
// mappings they retire to drain after publishing the replacement entries.
// The counter is per virtual mapping, not per physical span, so the drain
// always terminates: once the read-only (or empty) entries are published,
// a late registrant either observes the generation bump and aborts or
// observes ReadOnly and blocks in the fault hook (Mesh's SIGSEGV write
// barrier, §4.5.2); writers using other, still-writable mappings of the
// same physical span register on their own mapping's counter and are
// never waited on. Any write that registered before the protect is
// therefore fully in the source span before the engine's copy reads it —
// the lost-update window the barrier exists to close stays closed with no
// lock on the write path — and after an Unmap returns, no in-flight write
// can land in the span, so the arena may rebind it (MapExisting) without
// a stale write corrupting the new owner.
package vm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/counter"
	"repro/internal/faultinject"
	"repro/internal/pagemap"
	"repro/internal/trace"
)

// PageSize is the simulated hardware page size (x86-64 default, §4.4.3).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PhysID identifies a physical span (a run of contiguous physical page
// frames, analogous to a file-offset range in Mesh's memfd arena). Zero is
// never a valid id, so it can be used as a sentinel.
type PhysID uint64

// Prot describes page protection.
type Prot uint8

const (
	// ReadWrite is the default protection for mapped pages.
	ReadWrite Prot = iota
	// ReadOnly marks pages write-protected; writes invoke the fault hook
	// (Mesh's write barrier during object relocation, §4.5.2).
	ReadOnly
)

// Common errors returned by memory operations.
var (
	ErrUnmapped     = errors.New("vm: address not mapped")
	ErrBadPhys      = errors.New("vm: unknown physical span")
	ErrPhysLive     = errors.New("vm: physical span still mapped")
	ErrMisaligned   = errors.New("vm: address not page aligned")
	ErrDoubleMap    = errors.New("vm: virtual range already mapped")
	ErrPhysReleased = errors.New("vm: physical span already punched")
	// ErrOutOfMemory is returned by Commit when a physical page budget is
	// set (SetMemoryLimit) and the request would exceed it — the
	// simulation of a cgroup limit or a memory-constrained device, §1's
	// motivating scenario.
	ErrOutOfMemory = errors.New("vm: physical memory limit exceeded")
)

// physSpan is a run of physical page frames.
type physSpan struct {
	data  []byte
	pages int
	refs  int // number of virtual spans currently mapped to it
}

// pte is a page-table entry. Values are immutable once published through
// the radix table; mutations publish a fresh entry. Beyond the classical
// fields (span, page offset, protection) an entry caches the span's whole
// backing store and its writer counter, so a translated access needs no
// second lookup anywhere.
type pte struct {
	phys      PhysID
	off       int // page index within the physical span
	spanPages int // physical span length, bounds the multi-page run
	prot      Prot
	data      []byte // the physical span's backing store
	// wr counts in-flight lock-free writes through this virtual mapping;
	// all entries published by one Commit/MapExisting/Remap share one
	// counter, and Protect preserves it, so retiring a mapping can drain
	// exactly the writers that could still touch it (see the package
	// comment's seqlock protocol).
	wr *atomic.Int64
}

// baseVPN is the first virtual page number the page table covers: the
// table is indexed by page offset from ArenaBase. Reserve's bump pointer
// never reuses addresses, so pagemap.MaxPages is a hard capacity, checked
// when a mapping is established.
const baseVPN = ArenaBase >> PageShift

// Stats counts VM operations; the benchmark harness reports these to explain
// where meshing's overhead comes from (system calls and copies, §6.3).
type Stats struct {
	Commits      uint64 // fresh physical spans created (mmap)
	Reuses       uint64 // dirty spans reused without zeroing
	Remaps       uint64 // virtual spans repointed (meshing mmap calls)
	Unmaps       uint64 // virtual spans unmapped
	Punches      uint64 // physical spans released (fallocate PUNCH_HOLE)
	Faults       uint64 // write-protection faults taken
	BytesCopied  uint64 // bytes copied between physical spans (meshing)
	Translations uint64 // lock-free data-path translations (one per page run)
	Retries      uint64 // seqlock retries: accesses that raced a page-table mutation
}

// OS is the simulated kernel memory subsystem. All methods are safe for
// concurrent use; the data path takes no locks at all (see the package
// comment).
type OS struct {
	// mu serializes page-table mutations (Commit, MapExisting, Remap,
	// Unmap, Protect, Punch) and guards the physical-span registry. The
	// data path never takes it.
	mu       sync.Mutex
	phys     map[PhysID]*physSpan
	nextPhys uint64 // guarded by mu

	// gen is the translation seqlock: odd while a mutation that changes or
	// revokes existing translations is rewriting slots, bumped to a new
	// even value when it completes. Lock-free accesses validate it.
	gen atomic.Uint64

	// ptes is the page table, indexed by page offset from ArenaBase.
	ptes pagemap.Map[pte]

	nextVirt atomic.Uint64 // bump pointer for Reserve, in pages

	rssPages    atomic.Int64
	mappedPages atomic.Int64
	limitPages  atomic.Int64 // 0 = unlimited

	statCommits      atomic.Uint64
	statReuses       atomic.Uint64
	statRemaps       atomic.Uint64
	statUnmaps       atomic.Uint64
	statPunches      atomic.Uint64
	statFaults       atomic.Uint64
	statBytesCopied  atomic.Uint64
	statRetries      atomic.Uint64
	statTranslations counter.Striped // by page number: no hot line shared on the data path

	// faultHook is invoked (with no VM locks held) when a write hits a
	// read-only page. It should block until the page becomes writable
	// again (Mesh's segfault handler waits on the mesh lock). After it
	// returns, the write is retried.
	faultHook atomic.Value // func(addr uint64)

	// tr is the flight-recorder source for seqlock retries and
	// protection changes; nil (a standalone OS) records nothing. An
	// atomic pointer so SetTracer needs no ordering contract with the
	// lock-free data path.
	tr atomic.Pointer[trace.Source]

	// faults is the fault-injection plane consulted at the entry of
	// every fallible syscall model; nil (a standalone OS) injects
	// nothing. An atomic pointer for the same reason as tr.
	faults atomic.Pointer[faultinject.Plane]
}

// ArenaBase is where reserved virtual address space begins. A high, clearly
// non-zero base makes stray small-integer "pointers" detectable, like real
// mmap placement.
const ArenaBase = 0x1_0000_0000

// NewOS returns an empty simulated memory subsystem.
func NewOS() *OS {
	o := &OS{phys: make(map[PhysID]*physSpan)}
	o.nextVirt.Store(baseVPN)
	return o
}

// SetFaultHook installs the write-protection fault handler.
func (o *OS) SetFaultHook(h func(addr uint64)) {
	o.faultHook.Store(h)
}

// SetTracer installs the flight-recorder source for VM events (seqlock
// retries, protection changes). Safe to call at any time; nil disables.
func (o *OS) SetTracer(s *trace.Source) {
	o.tr.Store(s)
}

// SetFaultPlane installs the fault-injection plane for VM syscall
// models (Commit, MapExisting, Protect). Safe to call at any time; nil
// disables injection.
func (o *OS) SetFaultPlane(p *faultinject.Plane) {
	o.faults.Store(p)
}

// injectAt asks the fault plane whether the syscall model at site
// should fail. When oom is set, permanent injected faults are dressed
// as ErrOutOfMemory — the shape a real ENOMEM would take — so they
// flow into the allocator's backpressure ladder; transient faults keep
// their faultinject.ErrTransient identity for the retry wrappers.
func (o *OS) injectAt(site faultinject.Site, oom bool) error {
	err := o.faults.Load().Fail(site)
	if err == nil {
		return nil
	}
	if oom && !errors.Is(err, faultinject.ErrTransient) {
		return fmt.Errorf("%w: %w", ErrOutOfMemory, err)
	}
	return err
}

// Reserve allocates a fresh range of virtual address space, pages pages
// long, with no backing (like PROT_NONE mmap). It returns the base address.
func (o *OS) Reserve(pages int) uint64 {
	if pages <= 0 {
		panic("vm: Reserve of non-positive page count")
	}
	// Leave a one-page guard gap between reservations so adjacent spans
	// cannot be confused by off-by-one pointer arithmetic in tests.
	base := o.nextVirt.Add(uint64(pages)+1) - uint64(pages) - 1
	return base << PageShift
}

// slot returns the page-table slot for one virtual page number, allocating
// its leaf on first touch. Panics outside the table's 16 TiB range.
func (o *OS) slot(vpn uint64) *atomic.Pointer[pte] { return o.ptes.Slot(vpn - baseVPN) }

// peek loads the page-table entry for one virtual page with two atomic
// loads, or nil when the page is unmapped (or outside the table's range —
// address 0 and other wild pointers resolve to nil, not a panic).
//
//mesh:lockfree
func (o *OS) peek(vpn uint64) *pte { return o.ptes.Load(vpn - baseVPN) }

// beginUpdate opens a translation-changing page-table mutation: the
// generation becomes odd, making concurrent lock-free accesses spin until
// endUpdate. Caller holds o.mu.
func (o *OS) beginUpdate() { o.gen.Add(1) }

// endUpdate publishes the mutation: the generation becomes a new even
// value, which invalidates every access that overlapped the update window.
func (o *OS) endUpdate() { o.gen.Add(1) }

// noteRetry counts one discarded lock-free access (stats.vm.retries) and
// yields so the mutator holding the update window can finish.
//
//mesh:lockfree
func (o *OS) noteRetry() {
	o.statRetries.Add(1)
	o.tr.Load().Event(trace.EvVMRetry, 0, 0)
	runtime.Gosched()
}

// noteTranslation counts one served page-run translation
// (stats.vm.translations). Only validated accesses count — a retried or
// faulted attempt re-resolves but is not an extra served run, so the
// retries/translations health ratio keeps a clean denominator.
//
//mesh:lockfree
func (o *OS) noteTranslation(vpn uint64) { o.statTranslations.Inc(vpn) }

// resolveRun translates addr and extends the translation across subsequent
// pages while they stay in the same physical span at consecutive offsets
// with identical protection — the multi-page fast path: one translation
// per page run, not per page. It returns the first page's entry, the byte
// offset of addr within the span's data, and the run length in bytes
// (capped at max). A nil entry means addr's page is unmapped.
//
// The caller is responsible for seqlock validation; resolveRun itself only
// performs atomic loads.
//
//mesh:lockfree
func (o *OS) resolveRun(addr uint64, max int) (e *pte, start, n int) {
	vpn := addr >> PageShift
	e = o.peek(vpn)
	if e == nil {
		return nil, 0, 0
	}
	pageOff := int(addr & (PageSize - 1))
	start = e.off*PageSize + pageOff
	n = PageSize - pageOff
	off := e.off
	for n < max && off+1 < e.spanPages {
		vpn++
		off++
		next := o.peek(vpn)
		if next == nil || next.phys != e.phys || next.off != off || next.prot != e.prot {
			break
		}
		n += PageSize
	}
	if n > max {
		n = max
	}
	return e, start, n
}

// Commit backs [vaddr, vaddr+pages*PageSize) with a fresh, zeroed physical
// span and returns its id. The range must be reserved and unmapped.
func (o *OS) Commit(vaddr uint64, pages int) (PhysID, error) {
	if vaddr%PageSize != 0 {
		return 0, ErrMisaligned
	}
	if err := o.injectAt(faultinject.SiteVMCommit, true); err != nil {
		return 0, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	vpn := vaddr >> PageShift
	for i := uint64(0); i < uint64(pages); i++ {
		if o.peek(vpn+i) != nil {
			return 0, fmt.Errorf("%w: page %#x", ErrDoubleMap, (vpn+i)<<PageShift)
		}
	}
	if limit := o.limitPages.Load(); limit > 0 && o.rssPages.Load()+int64(pages) > limit {
		return 0, fmt.Errorf("%w: %d pages resident, %d requested, limit %d",
			ErrOutOfMemory, o.rssPages.Load(), pages, limit)
	}
	o.nextPhys++
	id := PhysID(o.nextPhys)
	ps := &physSpan{data: make([]byte, pages*PageSize), pages: pages, refs: 1}
	o.phys[id] = ps
	// Publishing entries into previously empty slots needs no generation
	// bump: a concurrent access of these addresses was racing the mapping
	// call and may validly observe either "unmapped" or the new entry.
	o.publishSpanLocked(vpn, id, ps)
	o.rssPages.Add(int64(pages))
	o.mappedPages.Add(int64(pages))
	o.statCommits.Add(1)
	return id, nil
}

// publishSpanLocked stores read-write entries mapping ps's pages at vpn,
// all sharing one fresh writer counter (one mapping, one counter). One
// allocation covers the whole span's entries. Caller holds o.mu.
func (o *OS) publishSpanLocked(vpn uint64, id PhysID, ps *physSpan) {
	wr := new(atomic.Int64)
	entries := make([]pte, ps.pages)
	for i := 0; i < ps.pages; i++ {
		entries[i] = pte{phys: id, off: i, spanPages: ps.pages, prot: ReadWrite, data: ps.data, wr: wr}
		o.slot(vpn + uint64(i)).Store(&entries[i])
	}
}

// drainWriters waits until every in-flight lock-free write registered on
// the given mapping counters has completed. Callers have already published
// entries that stop new registrations (read-only, or cleared slots), so
// only writers that validated before the generation bump — a bounded set,
// each mid-memcpy with nothing to block on — are waited for; late
// registrants observe the bump and deregister immediately.
func drainWriters(counters []*atomic.Int64) {
	for _, wr := range counters {
		for wr.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// appendCounter adds wr to counters if not already present (ranges span
// few distinct mappings, so linear scan beats a map).
func appendCounter(counters []*atomic.Int64, wr *atomic.Int64) []*atomic.Int64 {
	for _, c := range counters {
		if c == wr {
			return counters
		}
	}
	return append(counters, wr)
}

// MapExisting maps [vaddr, vaddr+pages) onto an existing physical span
// (whole-span mapping at offset 0). This models reusing a dirty span from
// the arena's used bins without zeroing (§4.4.1): the previous contents are
// preserved, exactly as with real mmap of an existing file offset.
func (o *OS) MapExisting(vaddr uint64, id PhysID) error {
	if vaddr%PageSize != 0 {
		return ErrMisaligned
	}
	if err := o.injectAt(faultinject.SiteVMMap, true); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	ps, ok := o.phys[id]
	if !ok {
		return ErrBadPhys
	}
	if ps.data == nil {
		return ErrPhysReleased
	}
	vpn := vaddr >> PageShift
	for i := 0; i < ps.pages; i++ {
		if o.peek(vpn+uint64(i)) != nil {
			return fmt.Errorf("%w: page %#x", ErrDoubleMap, (vpn+uint64(i))<<PageShift)
		}
	}
	o.publishSpanLocked(vpn, id, ps)
	ps.refs++
	o.mappedPages.Add(int64(ps.pages))
	o.statReuses.Add(1)
	return nil
}

// Remap atomically repoints the already-mapped virtual span at vaddr (pages
// long, currently mapped to some physical span at offset 0) to physical span
// dst, also at offset 0. It returns the previously backing span's id and its
// remaining reference count. This is the meshing page-table update (§4.5.1):
// after Remap, reads of vaddr observe dst's contents; the virtual addresses
// themselves never change. The generation bump makes lock-free accesses
// that overlapped the update retry onto the new entries.
func (o *OS) Remap(vaddr uint64, pages int, dst PhysID) (old PhysID, oldRefs int, err error) {
	if vaddr%PageSize != 0 {
		return 0, 0, ErrMisaligned
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	vpn := vaddr >> PageShift
	first := o.peek(vpn)
	if first == nil {
		return 0, 0, ErrUnmapped
	}
	dstSpan, ok := o.phys[dst]
	if !ok {
		return 0, 0, ErrBadPhys
	}
	if dstSpan.data == nil {
		return 0, 0, ErrPhysReleased
	}
	if dstSpan.pages != pages {
		return 0, 0, fmt.Errorf("vm: remap size mismatch: %d pages onto %d-page span", pages, dstSpan.pages)
	}
	old = first.phys
	oldSpan := o.phys[old]
	for i := uint64(0); i < uint64(pages); i++ {
		e := o.peek(vpn + i)
		if e == nil || e.phys != old {
			return 0, 0, fmt.Errorf("vm: remap range not a single span at %#x", vaddr)
		}
	}
	o.beginUpdate()
	o.publishSpanLocked(vpn, dst, dstSpan)
	o.endUpdate()
	if old != dst {
		oldSpan.refs--
		dstSpan.refs++
	}
	o.statRemaps.Add(1)
	return old, oldSpan.refs, nil
}

// Unmap removes the mapping for [vaddr, vaddr+pages). It returns the backing
// physical span and its remaining refcount so the caller (the arena) can
// decide whether to bin or punch it.
func (o *OS) Unmap(vaddr uint64, pages int) (PhysID, int, error) {
	if vaddr%PageSize != 0 {
		return 0, 0, ErrMisaligned
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	vpn := vaddr >> PageShift
	first := o.peek(vpn)
	if first == nil {
		return 0, 0, ErrUnmapped
	}
	id := first.phys
	var counters []*atomic.Int64
	for i := uint64(0); i < uint64(pages); i++ {
		e := o.peek(vpn + i)
		if e == nil || e.phys != id {
			return 0, 0, fmt.Errorf("vm: unmap range not a single span at %#x", vaddr)
		}
		counters = appendCounter(counters, e.wr)
	}
	o.beginUpdate()
	for i := uint64(0); i < uint64(pages); i++ {
		o.slot(vpn + i).Store(nil)
	}
	o.endUpdate()
	// Quiesce the retired mapping: once this returns, no in-flight write
	// can land in the span, so the caller (the arena) may park it in a
	// dirty bin and rebind it without a stale racing write corrupting the
	// next owner. Cleared slots stop new registrations, so the wait is
	// bounded.
	drainWriters(counters)
	ps := o.phys[id]
	ps.refs--
	o.mappedPages.Add(int64(-pages))
	o.statUnmaps.Add(1)
	return id, ps.refs, nil
}

// Punch releases the physical memory of span id (fallocate
// FALLOC_FL_PUNCH_HOLE, §4.4.1). The span must have no live mappings. Its id
// remains known but unusable. No generation bump is needed: the span lost
// its last mapping in an Unmap or Remap that already bumped, so any access
// still holding one of its entries fails validation and retries.
func (o *OS) Punch(id PhysID) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	ps, ok := o.phys[id]
	if !ok {
		return ErrBadPhys
	}
	if ps.refs > 0 {
		return ErrPhysLive
	}
	if ps.data == nil {
		return ErrPhysReleased
	}
	ps.data = nil
	o.rssPages.Add(int64(-ps.pages))
	o.statPunches.Add(1)
	delete(o.phys, id)
	return nil
}

// Protect sets the protection on [vaddr, vaddr+pages) (mprotect). When
// write-protecting, Protect returns only after every in-flight lock-free
// write through the protected mappings has landed — the §4.5.2 guarantee
// the meshing engine relies on: after protectSpans, the source span's
// contents are stable until the fault hook releases a blocked writer.
// (Writers using other, still-writable virtual mappings of the same
// physical span are not waited on — they registered on their own
// mapping's counter. The engine protects every virtual span of a meshing
// source, so after the last Protect returns the physical span is fully
// quiescent.)
func (o *OS) Protect(vaddr uint64, pages int, p Prot) error {
	if vaddr%PageSize != 0 {
		return ErrMisaligned
	}
	// Only protect-to-read-only is fallible: restoring read-write is the
	// mesh abort path's recovery step, and recovery must not itself fail
	// (a span left read-only in a free bin would wedge its next writer).
	if p == ReadOnly {
		if err := o.injectAt(faultinject.SiteVMProtect, false); err != nil {
			return err
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	vpn := vaddr >> PageShift
	entries := make([]pte, pages)
	var counters []*atomic.Int64
	for i := uint64(0); i < uint64(pages); i++ {
		e := o.peek(vpn + i)
		if e == nil {
			return ErrUnmapped
		}
		entries[i] = *e
		entries[i].prot = p
		counters = appendCounter(counters, e.wr)
	}
	o.beginUpdate()
	for i := range entries {
		o.slot(vpn + uint64(i)).Store(&entries[i])
	}
	o.endUpdate()
	if p == ReadOnly {
		// Wait out writers that registered before the generation bump;
		// registrants after it observe ReadOnly and fault (or observe the
		// bump and abort), so the wait is bounded. When only part of a
		// mapping is protected, writers of the unprotected remainder share
		// the counter and extend the wait — the engine always protects
		// whole spans, so this affects only partial-protect callers.
		drainWriters(counters)
	}
	ro := uint64(0)
	if p == ReadOnly {
		ro = 1
	}
	o.tr.Load().Event(trace.EvVMProtect, vaddr, uint64(pages)<<1|ro)
	return nil
}

// ProtAt returns the current protection of the page containing addr —
// observability for tests of the write-barrier protocol (§4.5.2).
//
//mesh:lockfree
func (o *OS) ProtAt(addr uint64) (Prot, error) {
	for {
		g := o.gen.Load()
		if g&1 != 0 {
			o.noteRetry()
			continue
		}
		e := o.peek(addr >> PageShift)
		if e == nil {
			if o.gen.Load() != g {
				o.noteRetry()
				continue
			}
			return ReadWrite, fmt.Errorf("%w: %#x", ErrUnmapped, addr) //mesh:slowpath — unmapped/unhandled-fault error exits the fast path
		}
		p := e.prot
		if o.gen.Load() != g {
			o.noteRetry()
			continue
		}
		return p, nil
	}
}

// Read copies len(buf) bytes from virtual address addr into buf. Reads may
// cross page (and span) boundaries. Reads are always permitted — the first
// meshing invariant (§4.5.2): reads of objects being relocated are always
// correct and available to concurrent threads. Each page run translates
// lock-free and validates the seqlock generation after the copy, so a read
// that raced a remap is discarded and retried against the new page table —
// it can never return a torn mix of two physical spans.
//
//mesh:lockfree
func (o *OS) Read(addr uint64, buf []byte) error {
	done := 0
	for done < len(buf) {
		n, err := o.readRun(addr+uint64(done), buf[done:])
		if err != nil {
			return err
		}
		done += n
	}
	return nil
}

// readRun performs one lock-free read of up to one page run.
//
//mesh:lockfree
func (o *OS) readRun(addr uint64, buf []byte) (int, error) {
	for {
		g := o.gen.Load()
		if g&1 != 0 {
			o.noteRetry()
			continue
		}
		e, start, n := o.resolveRun(addr, len(buf))
		if e == nil {
			if o.gen.Load() != g {
				o.noteRetry()
				continue
			}
			return 0, fmt.Errorf("%w: %#x", ErrUnmapped, addr) //mesh:slowpath — unmapped/unhandled-fault error exits the fast path
		}
		copy(buf[:n], e.data[start:start+n])
		if o.gen.Load() != g {
			o.noteRetry()
			continue
		}
		o.noteTranslation(addr >> PageShift)
		return n, nil
	}
}

// Write copies data to virtual address addr. If a page is write-protected,
// the fault hook is invoked (once per fault) and the write retried —
// Mesh's write barrier: the handler blocks until meshing completes and the
// page is remapped read-write (§4.5.2). The write path takes no lock: it
// registers on the target mapping's writer counter, re-validates the seqlock
// generation, and copies; Protect's drain orders it against the engine's
// copy phase (see the package comment), so a write can never sneak into a
// physical span between the engine write-protecting it and copying its
// objects out.
//
//mesh:lockfree
func (o *OS) Write(addr uint64, data []byte) error {
	done := 0
	for done < len(data) {
		n, err := o.writeRun(addr+uint64(done), data[done:])
		if err != nil {
			return err
		}
		done += n
	}
	return nil
}

// writeRun performs one lock-free write of up to one page run. A nil fill
// writes data; a non-nil fill ignores data and memsets the run instead
// (shared by Write and Memset so the protocol lives in one place).
//
//mesh:lockfree
func (o *OS) writeRun(addr uint64, data []byte) (int, error) {
	return o.writeOrFillRun(addr, data, len(data), 0, false)
}

//mesh:lockfree
func (o *OS) writeOrFillRun(addr uint64, data []byte, max int, v byte, fill bool) (int, error) {
	for {
		g := o.gen.Load()
		if g&1 != 0 {
			o.noteRetry()
			continue
		}
		e, start, n := o.resolveRun(addr, max)
		if e == nil {
			if o.gen.Load() != g {
				o.noteRetry()
				continue
			}
			return 0, fmt.Errorf("%w: %#x", ErrUnmapped, addr) //mesh:slowpath — unmapped/unhandled-fault error exits the fast path
		}
		if e.prot == ReadOnly {
			if o.gen.Load() != g {
				// The protection observation itself may be stale; only
				// fault on a validated read-only entry.
				o.noteRetry()
				continue
			}
			o.statFaults.Add(1)
			h, ok := o.faultHook.Load().(func(uint64))
			if !ok || h == nil {
				return 0, fmt.Errorf("vm: write to read-only page %#x with no fault handler", addr) //mesh:slowpath — unmapped/unhandled-fault error exits the fast path
			}
			h(addr)  //mesh:slowpath — the write barrier: the fault hook blocks until meshing completes
			continue // retry translation; meshing has remapped the page
		}
		// Advertise the in-flight write, then re-validate: if the
		// generation is unchanged the entry was still current when we
		// registered, so a subsequent Protect drain waits for us.
		e.wr.Add(1)
		if o.gen.Load() != g {
			e.wr.Add(-1)
			o.noteRetry()
			continue
		}
		if fill {
			fillBytes(e.data[start:start+n], v)
		} else {
			copy(e.data[start:start+n], data[:n])
		}
		e.wr.Add(-1)
		if o.gen.Load() != g {
			// The page table changed while we copied: the bytes may have
			// landed in a span this address no longer maps to. Redo the
			// write against the current translation; rewriting the same
			// data is idempotent, and a source span we dirtied has either
			// already been copied out (drain ordering) or is unreferenced.
			o.noteRetry()
			continue
		}
		o.noteTranslation(addr >> PageShift)
		return n, nil
	}
}

// Copy copies n bytes from virtual address src to virtual address dst
// span-to-span — no caller staging buffer, no lock, one translation per
// page run on each side. It follows the same seqlock protocol as Write:
// the destination run registers on its mapping's writer counter so
// Protect's drain orders the copy against a meshing protect window, a
// write-protected destination page faults into the write barrier, and a
// generation change during the copy discards and redoes the chunk (the
// rewrite is idempotent, exactly as for Write). The regions must not
// overlap; the allocator's realloc path — fresh destination object — is
// the intended caller.
//
//mesh:lockfree
func (o *OS) Copy(dst, src uint64, n int) error {
	for n > 0 {
		c, err := o.copyRun(dst, src, n)
		if err != nil {
			return err
		}
		dst += uint64(c)
		src += uint64(c)
		n -= c
	}
	return nil
}

// copyRun performs one lock-free copy of up to one page run on both sides
// (the chunk is the shorter of the two runs).
//
//mesh:lockfree
func (o *OS) copyRun(dst, src uint64, max int) (int, error) {
	for {
		g := o.gen.Load()
		if g&1 != 0 {
			o.noteRetry()
			continue
		}
		se, ss, sn := o.resolveRun(src, max)
		if se == nil {
			if o.gen.Load() != g {
				o.noteRetry()
				continue
			}
			return 0, fmt.Errorf("%w: %#x", ErrUnmapped, src) //mesh:slowpath — unmapped/unhandled-fault error exits the fast path
		}
		de, ds, dn := o.resolveRun(dst, sn)
		if de == nil {
			if o.gen.Load() != g {
				o.noteRetry()
				continue
			}
			return 0, fmt.Errorf("%w: %#x", ErrUnmapped, dst) //mesh:slowpath — unmapped/unhandled-fault error exits the fast path
		}
		n := dn
		if de.prot == ReadOnly {
			if o.gen.Load() != g {
				// The protection observation itself may be stale; only
				// fault on a validated read-only entry.
				o.noteRetry()
				continue
			}
			o.statFaults.Add(1)
			h, ok := o.faultHook.Load().(func(uint64))
			if !ok || h == nil {
				return 0, fmt.Errorf("vm: write to read-only page %#x with no fault handler", dst) //mesh:slowpath — unmapped/unhandled-fault error exits the fast path
			}
			h(dst)   //mesh:slowpath — the write barrier: the fault hook blocks until meshing completes
			continue // retry translation; meshing has remapped the page
		}
		de.wr.Add(1)
		if o.gen.Load() != g {
			de.wr.Add(-1)
			o.noteRetry()
			continue
		}
		copy(de.data[ds:ds+n], se.data[ss:ss+n])
		de.wr.Add(-1)
		if o.gen.Load() != g {
			o.noteRetry()
			continue
		}
		o.noteTranslation(src >> PageShift)
		o.noteTranslation(dst >> PageShift)
		return n, nil
	}
}

// fillBytes memsets b to v without an intermediate buffer.
//
//mesh:lockfree
func fillBytes(b []byte, v byte) {
	if len(b) == 0 {
		return
	}
	if v == 0 {
		// Recognized by the compiler as memclr.
		for i := range b {
			b[i] = 0
		}
		return
	}
	b[0] = v
	for i := 1; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
}

// ByteAt reads a single byte at addr.
//
//mesh:lockfree
func (o *OS) ByteAt(addr uint64) (byte, error) {
	var b [1]byte
	err := o.Read(addr, b[:])
	return b[0], err
}

// SetByte writes a single byte at addr.
//
//mesh:lockfree
func (o *OS) SetByte(addr uint64, v byte) error {
	b := [1]byte{v}
	return o.Write(addr, b[:])
}

// Memset fills n bytes starting at addr with v, filling each page run in
// place — no intermediate buffer, no lock, one translation per run.
//
//mesh:lockfree
func (o *OS) Memset(addr uint64, v byte, n int) error {
	for n > 0 {
		c, err := o.writeOrFillRun(addr, nil, n, v, true)
		if err != nil {
			return err
		}
		addr += uint64(c)
		n -= c
	}
	return nil
}

// PhysSlice returns a writable view of physical span id's memory. This is
// the allocator-internal escape hatch meshing uses to copy object contents
// between spans at the physical layer, below page protections (§4.5: "Mesh
// copies data at the physical span layer").
func (o *OS) PhysSlice(id PhysID) ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ps, ok := o.phys[id]
	if !ok {
		return nil, ErrBadPhys
	}
	if ps.data == nil {
		return nil, ErrPhysReleased
	}
	return ps.data, nil
}

// CopyPhys copies n bytes from span src at srcOff to span dst at dstOff,
// tracking the copy volume in Stats. The copy itself runs outside the
// mapping lock: meshing's ordering against application writes comes from
// Protect's writer drain, not from this function (see the package comment).
func (o *OS) CopyPhys(dst PhysID, dstOff int, src PhysID, srcOff, n int) error {
	d, err := o.PhysSlice(dst)
	if err != nil {
		return err
	}
	s, err := o.PhysSlice(src)
	if err != nil {
		return err
	}
	copy(d[dstOff:dstOff+n], s[srcOff:srcOff+n])
	o.statBytesCopied.Add(uint64(n))
	return nil
}

// Refs returns the current mapping count of a physical span (for tests).
func (o *OS) Refs(id PhysID) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ps, ok := o.phys[id]; ok {
		return ps.refs
	}
	return 0
}

// SetMemoryLimit caps resident physical memory at limitPages pages;
// Commit requests that would exceed the cap fail with ErrOutOfMemory.
// Pass 0 to remove the cap. Models a memory control group — the
// environment where fragmentation kills processes (§1).
func (o *OS) SetMemoryLimit(limitPages int64) {
	o.limitPages.Store(limitPages)
}

// MemoryLimit returns the current cap in pages (0 = unlimited).
func (o *OS) MemoryLimit() int64 { return o.limitPages.Load() }

// RSS returns resident memory in bytes: all physical pages allocated and not
// yet punched. Dirty spans parked in arena bins count, mirroring §4.4.1
// ("used pages are not immediately returned to the OS").
func (o *OS) RSS() int64 { return o.rssPages.Load() * PageSize }

// RSSPages returns resident memory in pages.
func (o *OS) RSSPages() int64 { return o.rssPages.Load() }

// MappedBytes returns the total size of live virtual mappings in bytes; with
// meshing this exceeds RSS (several virtual spans per physical span).
func (o *OS) MappedBytes() int64 { return o.mappedPages.Load() * PageSize }

// Translations returns the number of lock-free data-path translations
// served (stats.vm.translations) — one per page run, the VM-side analogue
// of the arena's lookup counter.
func (o *OS) Translations() uint64 { return o.statTranslations.Load() }

// Retries returns the number of seqlock retries taken by the data path
// (stats.vm.retries) — accesses discarded because they raced a page-table
// mutation. A high rate relative to Translations means heavy data traffic
// is racing remaps; near-zero is healthy.
func (o *OS) Retries() uint64 { return o.statRetries.Load() }

// Snapshot returns the operation counters.
func (o *OS) Snapshot() Stats {
	return Stats{
		Commits:      o.statCommits.Load(),
		Reuses:       o.statReuses.Load(),
		Remaps:       o.statRemaps.Load(),
		Unmaps:       o.statUnmaps.Load(),
		Punches:      o.statPunches.Load(),
		Faults:       o.statFaults.Load(),
		BytesCopied:  o.statBytesCopied.Load(),
		Translations: o.Translations(),
		Retries:      o.Retries(),
	}
}
