// Package core implements the Mesh allocator proper: the global heap
// (§4.4), thread-local heaps (§4.3), and the meshing engine that ties the
// SplitMesher algorithm to the virtual-memory substrate (§4.5). A thread
// heap attaches several spans per size class at once: each refill gathers
// spans from the fullest occupancy bins until their free slots match a
// fresh span's (GlobalHeap.attachSpans), and one shuffle vector serves
// them all.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/faultinject"
	"repro/internal/harden"
	"repro/internal/miniheap"
	"repro/internal/rng"
	"repro/internal/sizeclass"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Allocation errors.
var (
	ErrInvalidFree = errors.New("core: free of pointer not owned by the heap")
	ErrDoubleFree  = errors.New("core: double free")
	// ErrOutOfMemory is returned when an allocation exceeds the memory
	// limit and the backpressure ladder (flush dirty reuse bins →
	// emergency mesh pass → retry once) could not recover it. It wraps
	// vm.ErrOutOfMemory, so errors.Is matches either.
	ErrOutOfMemory = errors.New("core: out of memory")
	// ErrHeapCorruption is returned when a hardening check (canary, poison
	// fill, page-map agreement) finds corruption: the operation that found
	// it fails typed, the corrupt span is retired — contained, not fatal —
	// and the allocator keeps serving from every other span (see
	// internal/harden and harden.go).
	ErrHeapCorruption = errors.New("core: heap corruption detected")
)

// Config holds a heap's build-time settings: what is fixed once the heap
// exists. Runtime knobs are not here; they start at the Default*
// constants below and change through the GlobalHeap setters, which the
// mesh package exposes as control keys. The zero value is not valid; use
// DefaultConfig and override fields.
type Config struct {
	// Seed feeds every RNG in the heap; fixed seeds give reproducible runs.
	Seed uint64
	// Randomize enables randomized allocation (default true). Disabling it
	// yields the "Mesh (no rand)" configuration of §6.3.
	Randomize bool
	// DirtyPageThreshold overrides the arena's 64 MiB punch threshold
	// (pages); 0 keeps the default.
	DirtyPageThreshold int
	// Clock supplies time for rate limiting and pause measurement; nil uses
	// the wall clock.
	Clock Clock
	// MeshStepCost, when positive, is charged to an AdvancingClock for every
	// pair meshed. Real runs leave it 0; simulated-clock tests set it so
	// pass durations — and therefore the pause histogram — are
	// deterministic.
	MeshStepCost time.Duration
	// MeshCopyCost, when positive, sleeps this long per object copied
	// during a mesh, modeling the real memcpy the simulation's instant
	// CopyPhys elides. Tests of the §4.5.2 write-barrier protocol set it
	// to widen the protect window so racing writers reliably fault.
	MeshCopyCost time.Duration
}

// Runtime-knob defaults, stored at construction. Meshing also starts
// enabled.
const (
	// DefaultMeshPeriod is the minimum interval between meshing passes
	// (§4.5: at most once every 0.1 s).
	DefaultMeshPeriod = 100 * time.Millisecond
	// DefaultMinMeshSavings is the pass-productivity threshold: a pass
	// that frees fewer bytes disarms the timer until a later free reaches
	// the global heap (§4.5).
	DefaultMinMeshSavings = 1 << 20
	// DefaultMaxPause is the pause budget of the daemon's passes (§4.5's
	// bounded-pause goal): the fix-up loop releases the shard lock once
	// the budget is spent and continues under a fresh acquisition. Mesh,
	// the inline and explicit pass, runs with an unbounded budget.
	DefaultMaxPause = time.Millisecond
)

// splitMesherT is SplitMesher's probe budget per span (§3.3: the paper's
// t = 64).
const splitMesherT = 64

// DefaultConfig returns the paper's default configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, Randomize: true}
}

// NumPauseBuckets is the number of fixed buckets in the pause histogram.
const NumPauseBuckets = 8

// pauseBucketBounds holds the inclusive upper bound of each histogram
// bucket but the last, which is unbounded.
var pauseBucketBounds = [NumPauseBuckets - 1]time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// PauseBucketBound returns the inclusive upper bound of histogram bucket i;
// the last bucket is unbounded and returns a negative duration.
func PauseBucketBound(i int) time.Duration {
	if i < 0 || i >= NumPauseBuckets-1 {
		return -1
	}
	return pauseBucketBounds[i]
}

func pauseBucket(d time.Duration) int {
	for i, bound := range pauseBucketBounds {
		if d <= bound {
			return i
		}
	}
	return NumPauseBuckets - 1
}

// PauseHistogram is the distribution of meshing pauses — every interval the
// engine held a heap shard lock (§4.5.3). Each size-class visit that claims
// mesh pairs contributes its candidate-selection hold and each of its
// remap fix-up chunks (one chunk under Mesh's unbounded budget); visits
// that find nothing to mesh record nothing. Comparable with ==, so
// snapshots diff cheaply in tests.
type PauseHistogram struct {
	Count   uint64        // pauses recorded
	Total   time.Duration // summed pause time
	Longest time.Duration // longest single pause
	// Buckets counts pauses by duration; bucket i covers
	// (PauseBucketBound(i-1), PauseBucketBound(i)], the last is unbounded.
	Buckets [NumPauseBuckets]uint64
}

// MeshStats aggregates compaction activity.
type MeshStats struct {
	Passes       uint64         // meshing passes run
	SpansMeshed  uint64         // source spans freed by meshing
	BytesFreed   uint64         // physical bytes released by meshing
	BytesCopied  uint64         // object bytes consolidated
	TotalTime    time.Duration  // time spent in class visits that claimed pairs, including off-lock copy
	LongestPause time.Duration  // longest single shard-lock hold (== Pauses.Longest)
	Pauses       PauseHistogram // distribution of shard-lock holds by the engine
}

// RemoteStats counts message-passing remote frees (the per-heap lock-free
// queues of remote.go). At quiescence — every heap drained or Done —
// Drained equals Queued; a persistent gap means frees are parked on a
// heap that has not reached a drain point yet.
type RemoteStats struct {
	Queued  uint64 // frees posted to owner queues instead of taking a shard lock
	Drained uint64 // queued frees settled by their owners
}

// HeapStats is a point-in-time snapshot of heap state.
type HeapStats struct {
	RSS         int64  // resident physical bytes (the paper's headline metric)
	Mapped      int64  // live virtual mappings (> RSS after meshing)
	Live        int64  // bytes in currently allocated objects (size-class rounded)
	Allocs      uint64 // total allocations
	Frees       uint64 // total frees
	Mesh        MeshStats
	VM          vm.Stats
	Remote      RemoteStats
	InvalidFree uint64       // discarded bad frees (§4.4.4)
	Harden      harden.Stats // hardening checks, violations, quarantine, retirement
}

// classState is one size class's shard of the global heap: the detached
// MiniHeaps (occupancy bins for partially full spans plus a set for full
// spans), the class registry, the class's RNG stream, and the shard lock
// that guards them all, the MiniHeaps' membership slots for these sets
// included (binset.go). Sharding by size class works because every
// structural operation — a free's re-bin, a refill, a release, a meshing
// fix-up — touches spans of exactly one class, so operations in distinct
// classes never contend (§4.4's global-heap serialization confined to a
// class).
type classState struct {
	mu       sync.Mutex
	acquires atomic.Uint64 // shard-lock acquisitions (stats.global.shard_acquires)

	// rnd drives this class's random bin picks and SplitMesher shuffles.
	// Guarded by mu; per-class streams keep runs deterministic without a
	// cross-shard RNG lock.
	rnd *rng.RNG

	// nonEmpty has bit b set iff bins[b] is non-empty, so refills find the
	// fullest non-empty bin with one bit scan instead of probing bins one
	// by one.
	nonEmpty uint32

	bins [miniheap.NumBins]*binSet
	full *binSet
	// reg tracks every live MiniHeap of the class, attached or detached,
	// for introspection (ClassStats) and integrity checking.
	reg *binSet
}

// lock acquires the shard lock, counting the acquisition.
func (cs *classState) lock() {
	cs.mu.Lock()
	cs.acquires.Add(1)
}

func (cs *classState) unlock() { cs.mu.Unlock() }

// binAdd files a partially full MiniHeap by occupancy, maintaining the
// non-empty bitmask. Caller holds cs.mu.
func (cs *classState) binAdd(mh *miniheap.MiniHeap) {
	b := mh.Bin()
	cs.bins[b].add(mh)
	cs.nonEmpty |= 1 << uint(b)
}

// binRemove removes a MiniHeap from bin b, maintaining the non-empty
// bitmask. Caller holds cs.mu.
func (cs *classState) binRemove(b int, mh *miniheap.MiniHeap) {
	cs.bins[b].remove(mh)
	if cs.bins[b].len() == 0 {
		cs.nonEmpty &^= 1 << uint(b)
	}
}

// GlobalHeap manages runtime state shared by all threads: MiniHeap
// allocation, large objects, non-local frees, and meshing coordination
// (§4.4).
//
// # Lock hierarchy
//
// The paper's single global-heap lock is sharded here so that operations
// in distinct size classes proceed in parallel. From outermost to
// innermost, the locks are:
//
//	meshBarrier            — held by the meshing engine for each size
//	                         class's protect→remap window, whatever the
//	                         pause budget; the write-fault hook waits on
//	                         it and nothing else.
//	classes[c].mu          — one shard lock per size class, guarding the
//	                         class's bins, full set, registry, RNG, and all
//	                         arena ownership updates (Register/Reassign/
//	                         Unregister) for spans of the class. Taken
//	                         one at a time by normal operations; only
//	                         CheckIntegrity holds several, in ascending
//	                         class order.
//	largeMu                — guards the large-object registry.
//	arena/vm internals     — the arena's dirty-bin mutex and the simulated
//	                         OS's mapping mutex; leaves of the order.
//
// The list above is machine-read: internal/analysis/lockspec.go mirrors
// it as the meshvet lock-order spec, a unit test fails if the two drift
// apart, and the lockorder pass flags any acquisition that does not
// strictly descend it (see internal/analysis).
//
// Below all of them sits the VM's translation seqlock (vm.OS's generation
// counter): not a lock but a retry protocol. Remap/Unmap/Protect bump it
// inside the vm mapping mutex, so every protect→copy→remap window the
// engine opens bumps the generation at least twice — once at the protect,
// once per remap — and any lock-free data access that overlapped the window
// discards its result and retries onto the new page-table entries. That
// retry is what preserves the §4.5.2 invariant for readers of a
// meshed-away page (the destination holds identical contents by the time
// the remap publishes), while faulting writers wait on meshBarrier as
// before. Protect(ReadOnly) additionally drains in-flight lock-free writes
// before returning, so the engine's copy phase — which runs with no locks
// at all beyond the barrier — can never lose a racing write (vm.OS's
// package comment gives the full protocol).
//
// A holder of a later lock never acquires an earlier one; the fault hook
// acquires only meshBarrier (never a shard lock), so a writer blocked on a
// mid-copy span cannot deadlock against the engine's fix-up. Runtime knobs
// (mesh period, enablement, pause budget, probe budget, savings threshold)
// live in atomics and take no lock at all. arena.Lookup is lock-free; the
// free path re-runs it under the owning class's shard lock for the
// authoritative owner (see arena.Lookup). vm.Read/Write/Memset are
// likewise lock-free end to end — the data path touches no mutex in this
// hierarchy at all.
//
// The remote-free queue protocol (remote.go) sits entirely outside this
// hierarchy: a push is a segment-slot reservation (or a Treiber-stack
// CAS for a fresh segment) on the owning heap's queue, performed while
// holding no lock, and never blocks on — or is blocked by — the mesh
// barrier or a shard lock. Its correctness leans on
// the hierarchy indirectly: a non-nil owner sink proves the span is
// attached, attached spans are never meshed (the engine only pins
// detached spans, under the barrier plus the class's shard lock), and the
// drain-side fallback for spans that detached after the push re-enters
// the hierarchy normally — shard lock, address re-resolution — so it
// serializes with meshing fix-ups exactly like any other non-local free.
// Drains therefore must not run while holding any lock in the hierarchy;
// every drain point (refill, Done, pool park/unpark, front-end stripe
// release) calls with none held. Ordering the queue below the barrier
// would be wrong in the other direction too: the engine never touches
// remote queues, so no hold-and-wait cycle through them exists.
//
// The front-end stripe cache (internal/frontend) likewise sits outside
// the hierarchy: every stripe hand-off — the home-stripe swap, a miss's
// load-then-swap steal of a front parked on another stripe, the park
// CAS — is an atomic on a stripe slot performed with no lock held, and a
// magazine hit touches nothing shared at all. Its slow paths — magazine
// fill and flush, pool borrows when no stripe holds a front — re-enter
// the hierarchy through the ordinary batch malloc/free entry points
// (shard locks, remote queues) with no lock held on entry, so the stripe
// layer can neither invert the order nor hold-and-wait against meshing.
type GlobalHeap struct {
	cfg   Config // immutable after construction; runtime knobs live in the atomics below
	os    *vm.OS
	arena *arena.Arena
	clock Clock

	// tracer is the heap's flight recorder (internal/trace): every
	// emission site in the allocator records through a Source of this
	// recorder, and the mallctl trace.* keys control it. trEngine and
	// trBarrier are the singleton sources for meshing-phase events and
	// write-barrier waits; thread heaps carry their own sources.
	tracer    *trace.Recorder
	trEngine  *trace.Source
	trBarrier *trace.Source

	// faults is the heap's fault-injection plane (internal/faultinject),
	// shared with the VM layer and consulted by the mesh engine, the
	// remote-free push path, and the meshd daemon. Always non-nil;
	// disabled unless a fault plan arms it.
	faults *faultinject.Plane

	// harden is the heap-hardening control plane (internal/harden): the
	// enable flags, canary secret, and detection counters behind
	// stats.harden.*. Always non-nil; disabled unless configured or the
	// harden.enabled control turns it on. trHarden is the trace source for
	// violation and retirement events; auditCursor is the background
	// auditor's resumable (class, registry index) position (harden.go).
	harden      *harden.Plane
	trHarden    *trace.Source
	auditCursor atomic.Uint64

	// meshBarrier is the write barrier's wait point for meshing
	// (§4.5.2–§4.5.3): the engine holds it from write-protecting source
	// spans until the page-table remap restores them read-write, so a
	// faulting writer that acquires and releases it is guaranteed the mesh
	// it raced is complete. Always acquired before any shard lock, never
	// while holding one.
	meshBarrier sync.Mutex

	// background routes the free-path mesh trigger to meshNotify (the
	// daemon's nudge) instead of meshing inline on the freeing goroutine.
	background atomic.Bool
	meshNotify atomic.Pointer[func()]

	// Runtime-tunable knobs (the mallctl surface). Atomics so the hot
	// paths and the engine read them without locks.
	meshEnabled atomic.Bool
	meshPeriod  atomic.Int64 // ns
	minSavings  atomic.Int64 // bytes
	maxPause    atomic.Int64 // ns

	classes [sizeclass.NumClasses]classState

	largeMu sync.Mutex
	large   map[uint64]*miniheap.MiniHeap // span start -> singleton MiniHeap

	// Mesh scheduler rate-limiting state: atomics, so the free-path
	// trigger never serializes cross-class frees on a scheduler lock.
	// Rate limiting is advisory, so the unsynchronized reads are fine —
	// the meshInline CAS (plus a post-CAS due re-check) is what actually
	// prevents duplicate passes.
	lastMesh     atomic.Int64 // ns on the heap clock
	meshDisarmed atomic.Bool  // last pass freed < MinMeshSavings

	// meshInline collapses concurrent inline free-path triggers into one
	// pass; explicit Mesh calls bypass it.
	meshInline atomic.Bool

	liveBytes   atomic.Int64
	allocs      atomic.Uint64
	frees       atomic.Uint64
	invalidFree atomic.Uint64

	// Limit hits the OOM backpressure ladder recovered
	// (stats.oom.recoveries).
	oomRecoveries atomic.Uint64

	// Message-passing remote-free state (remote.go): the queued/drained
	// counters behind stats.remote.*.
	remoteQueued  atomic.Uint64
	remoteDrained atomic.Uint64

	// meshScratch backs the copy loop's set-bit iteration; guarded by the
	// mesh barrier (copyPair never runs outside it).
	meshScratch []int

	meshPasses   atomic.Uint64
	spansMeshed  atomic.Uint64
	bytesFreed   atomic.Uint64
	bytesCopied  atomic.Uint64
	meshTime     atomic.Int64 // nanoseconds
	longestPause atomic.Int64 // nanoseconds
	pauseCount   atomic.Uint64
	pauseTotal   atomic.Int64 // nanoseconds
	pauseBuckets [NumPauseBuckets]atomic.Uint64
}

// NewGlobalHeap constructs a heap with its own simulated address space.
func NewGlobalHeap(cfg Config) *GlobalHeap {
	osv := vm.NewOS()
	clock := cfg.Clock
	if clock == nil {
		clock = NewWallClock()
	}
	g := &GlobalHeap{
		cfg:   cfg,
		os:    osv,
		arena: arena.New(osv, cfg.DirtyPageThreshold),
		clock: clock,
		large: make(map[uint64]*miniheap.MiniHeap),
	}
	g.meshEnabled.Store(true)
	g.meshPeriod.Store(int64(DefaultMeshPeriod))
	g.minSavings.Store(DefaultMinMeshSavings)
	g.maxPause.Store(int64(DefaultMaxPause))
	for c := range g.classes {
		cs := &g.classes[c]
		// Per-class RNG streams derived from the seed: deterministic runs
		// without cross-shard contention on one generator.
		cs.rnd = rng.New(cfg.Seed ^ 0x6d657368 ^ (uint64(c+1) * 0x9e3779b97f4a7c15)) // "mesh"
		for b := range cs.bins {
			cs.bins[b] = newBinSet(miniheap.BinSlot, uint8(tagBin0+b))
		}
		cs.full = newBinSet(miniheap.BinSlot, tagFull)
		cs.reg = newBinSet(miniheap.RegSlot, tagReg)
	}
	// The flight recorder shares the heap's clock, so trace timestamps
	// line up with pause measurements and logical-clock runs stay
	// deterministic. The VM layer records through its own source.
	g.tracer = trace.NewRecorder(clock)
	g.trEngine = g.tracer.NewSource(trace.SrcEngine)
	g.trBarrier = g.tracer.NewSource(trace.SrcBarrier)
	osv.SetTracer(g.tracer.NewSource(trace.SrcVM))
	// The fault-injection plane: one per heap, shared with the VM layer
	// so a single plan drives every injection site deterministically. It
	// is seeded from the workload seed, so a chaos run replays from that
	// seed alone, and stays disabled until a plan arms it.
	g.faults = faultinject.NewPlane(cfg.Seed)
	g.faults.SetTracer(g.tracer.NewSource(trace.SrcFault))
	osv.SetFaultPlane(g.faults)
	// The hardening plane: keyed by the workload seed so canary values —
	// and therefore any corruption a chaos schedule manufactures — replay
	// deterministically. Disabled until switched on.
	g.harden = harden.NewPlane(cfg.Seed)
	g.trHarden = g.tracer.NewSource(trace.SrcHarden)
	// Mesh's write barrier: a write faulting on a protected page waits out
	// the class visit in flight, then retries; by then the page has been
	// remapped read-write (§4.5.2). Every protect→remap window — one size
	// class's visit, whatever the pause budget — is enclosed in one
	// meshBarrier hold, so waiting on the barrier alone guarantees the
	// racing mesh finished its remap (§4.5.3 — the SIGSEGV handler
	// "waits on the mesh lock"). The hook must not touch shard locks: it
	// runs on application goroutines that hold no heap locks, and taking a
	// shard lock here would deadlock against an engine visit that protects
	// spans and then copies while the fix-up still needs the same shard.
	osv.SetFaultHook(func(addr uint64) {
		start := g.clock.Now()
		g.meshBarrier.Lock()
		//lint:ignore SA2001 empty critical section is the wait itself
		g.meshBarrier.Unlock()
		g.trBarrier.Event(trace.EvBarrierWait, addr, uint64(g.clock.Now()-start))
	})
	return g
}

// Tracer returns the heap's flight recorder, for the mallctl trace.*
// surface and snapshot API.
func (g *GlobalHeap) Tracer() *trace.Recorder { return g.tracer }

// SetMeshNotifier installs the function the free path calls (instead of
// meshing inline) when background meshing is active — the daemon's
// non-blocking nudge. Pass nil to remove. Safe for concurrent use; the
// notifier is invoked after the freeing goroutine has released its shard
// lock, but it still must not run heap work itself — it only signals.
func (g *GlobalHeap) SetMeshNotifier(f func()) {
	if f == nil {
		g.meshNotify.Store(nil)
		return
	}
	g.meshNotify.Store(&f)
}

// SetBackgroundMeshing toggles background mode: when on, frees that reach
// the global heap nudge the registered notifier instead of running a pass
// on the freeing goroutine.
func (g *GlobalHeap) SetBackgroundMeshing(on bool) { g.background.Store(on) }

// BackgroundMeshing reports whether the free-path trigger is routed to the
// background notifier.
func (g *GlobalHeap) BackgroundMeshing() bool { return g.background.Load() }

// OS exposes the simulated memory subsystem (for application reads/writes
// through virtual addresses).
func (g *GlobalHeap) OS() *vm.OS { return g.os }

// Arena exposes the meshable arena.
func (g *GlobalHeap) Arena() *arena.Arena { return g.arena }

// RemoteQueued returns the number of frees posted to owner queues
// (stats.remote.queued).
func (g *GlobalHeap) RemoteQueued() uint64 { return g.remoteQueued.Load() }

// RemoteDrained returns the number of queued frees settled by their owners
// (stats.remote.drained). At quiescence it equals RemoteQueued.
func (g *GlobalHeap) RemoteDrained() uint64 { return g.remoteDrained.Load() }

// noteRemoteQueued records n message-passed frees totalling bytes at
// enqueue time, so Live and Frees stay exact while entries are in flight
// (the drain side therefore skips accounting — see freeSmallLocked's
// preAccounted flag). Callers account *before* the push and unwind on
// failure: a queued entry is drainable the instant it is published, so
// counting afterwards would let a concurrent stats reader observe
// drained > queued — the monitoring signal for a lost free — spuriously.
//
//mesh:lockfree
func (g *GlobalHeap) noteRemoteQueued(bytes int64, n uint64) {
	g.liveBytes.Add(-bytes)
	g.frees.Add(n)
	g.remoteQueued.Add(n)
}

// noteRemoteUnqueued reverses noteRemoteQueued for pushes that failed
// after being pre-accounted; the caller then routes the frees to the
// locked path, which accounts normally.
//
//mesh:lockfree
func (g *GlobalHeap) noteRemoteUnqueued(bytes int64, n uint64) {
	g.liveBytes.Add(bytes)
	g.frees.Add(^(n - 1)) // atomic subtract n
	g.remoteQueued.Add(^(n - 1))
}

// ShardAcquires returns the summed per-class shard-lock acquisition count
// (stats.global.shard_acquires) — the contention introspection counter:
// compare its growth rate against operation counts to see how often the
// free/refill paths leave the lock-free fast path.
func (g *GlobalHeap) ShardAcquires() uint64 {
	var n uint64
	for c := range g.classes {
		n += g.classes[c].acquires.Load()
	}
	return n
}

// maxGather returns the most spans one refill of class can attach (see
// attachSpans): every binned span brings at least one free slot toward
// the goal of ObjectCount(class) slots, and the spans' slot counts may not
// sum past MaxObjectCount, the shuffle vector's capacity.
func maxGather(class int) int {
	n := sizeclass.ObjectCount(class)
	return min(n, sizeclass.MaxObjectCount/n)
}

// attachSpans selects the spans a thread heap's refill attaches for class
// (§3.1, §4.2–4.3) and returns them in dst's backing array. Under one hold
// of the class's shard lock it takes spans from the fullest non-empty
// occupancy bins — the fullest bin located with one bit scan of the
// shard's non-empty mask, a span chosen from it uniformly at random — and
// stops at whichever limit it reaches first:
//
//   - the spans' free slots reach ObjectCount(class), what a fresh span
//     would give;
//   - one more span would push the spans' summed slot count past
//     MaxObjectCount, the shuffle vector's capacity;
//   - the bins run dry.
//
// Classes of 256 B and up hold 8–16 objects per span, so a 75–99% full
// span alone would restock the vector with 1–3 slots. Only when the bins
// held no span at all is a fresh span committed: one bins check decides
// both cases. Sizing dst for maxGather(class) spans keeps a refill free
// of Go allocations.
func (g *GlobalHeap) attachSpans(class int, dst []*miniheap.MiniHeap) ([]*miniheap.MiniHeap, error) {
	dst = dst[:0]
	cs := &g.classes[class]
	goal, limit := sizeclass.ObjectCount(class), maxGather(class)
	free := 0
	cs.lock()
	for cs.nonEmpty != 0 && free < goal && len(dst) < limit {
		b := bits.TrailingZeros32(cs.nonEmpty)
		mh := cs.bins[b].pick(cs.rnd)
		cs.binRemove(b, mh)
		// Attach under the lock so a concurrent global free cannot observe
		// a detached MiniHeap that is in no bin and re-file it.
		mh.Attach()
		dst = append(dst, mh)
		// Frees only clear bits while the span is attached, so the
		// refill's reserve finds at least this many.
		free += goal - mh.InUse()
	}
	cs.unlock()
	if len(dst) > 0 {
		return dst, nil
	}

	// No partially full span: demand a new one from the arena.
	pages := sizeclass.SpanPages(class)
	vbase, phys, _, err := g.allocSpanPressured(pages)
	if err != nil {
		return dst, err
	}
	mh := miniheap.New(class, vbase, phys)
	if g.harden.Enabled() {
		// Mint hardened before publication: the plain hardened flag is
		// ordered by the page-map store, and the whole span is poisoned —
		// spans may be reused dirty — so the first allocation of every slot
		// has a poison fill to verify.
		mh.SetHardened()
		_ = g.os.Memset(vbase, harden.PoisonByte, mh.SpanBytes())
	}
	// Register before publication: no free can name this span's addresses
	// until Malloc returns one, so the lock-free page map needs no shard
	// lock here.
	g.arena.Register(vbase, pages, mh)
	mh.Attach()
	cs.lock()
	cs.reg.add(mh)
	cs.unlock()
	return append(dst, mh), nil
}

// allocSpanPressured obtains a span from the arena, applying the OOM
// backpressure ladder when the memory limit refuses it. The remote-free
// drain rung already ran for small allocations — refill settles the
// calling heap's queue before ever reaching the global heap — so the
// ladder here is the memory-producing half: flush the arena's dirty
// reuse bins (pages the allocator is merely hoarding), run an emergency
// synchronous mesh pass (compaction is exactly the remedy the paper
// proposes for this moment), and retry once. Failures that survive the
// ladder come back typed as ErrOutOfMemory.
//
// Callers hold no locks — required: the emergency pass takes the mesh
// barrier and every shard lock in turn.
func (g *GlobalHeap) allocSpanPressured(pages int) (uint64, vm.PhysID, bool, error) {
	vbase, phys, reused, err := g.arena.AllocSpan(pages)
	if err == nil || !errors.Is(err, vm.ErrOutOfMemory) {
		return vbase, phys, reused, err
	}
	g.arena.FlushDirty()
	released := g.Mesh()
	vbase, phys, reused, err = g.arena.AllocSpan(pages)
	if err == nil {
		g.oomRecoveries.Add(1)
		g.trEngine.Event(trace.EvOOMRecover, uint64(pages), uint64(released))
		return vbase, phys, reused, nil
	}
	if errors.Is(err, vm.ErrOutOfMemory) {
		err = fmt.Errorf("%w: %w", ErrOutOfMemory, err)
	}
	return 0, 0, false, err
}

// Faults returns the heap's fault-injection plane, for the fault.*
// control surface and the meshd daemon's injection sites.
func (g *GlobalHeap) Faults() *faultinject.Plane { return g.faults }

// OOMRecoveries returns the number of memory-limit hits the
// backpressure ladder recovered (stats.oom.recoveries).
func (g *GlobalHeap) OOMRecoveries() uint64 { return g.oomRecoveries.Load() }

// releaseSpans returns a thread heap's spans of one class to the global
// heap under one hold of the class's shard lock: empty spans are destroyed
// and their memory released; partially full spans are binned by
// occupancy; full spans wait aside until a free makes them useful again.
// The caller has withdrawn each span's owner sink and returned its
// reserved slots to the bitmap. A span that fails to release does not
// stop the others; the first error is returned.
func (g *GlobalHeap) releaseSpans(spans []*miniheap.MiniHeap) error {
	cs := &g.classes[spans[0].SizeClass()]
	cs.lock()
	defer cs.unlock()
	var err error
	for _, mh := range spans {
		// Detach under the lock: a concurrent global free must never
		// observe a MiniHeap that is detached but not yet filed in a bin,
		// or it would file it twice.
		mh.Detach()
		if perr := g.placeDetachedLocked(cs, mh); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// placeDetachedLocked files a detached MiniHeap in the right structure, or
// destroys it if empty. Caller holds cs.mu for the MiniHeap's class.
func (g *GlobalHeap) placeDetachedLocked(cs *classState, mh *miniheap.MiniHeap) error {
	switch {
	case mh.IsEmpty():
		return g.destroyLocked(cs, mh)
	case mh.IsFull():
		cs.full.add(mh)
	default:
		cs.binAdd(mh)
	}
	return nil
}

// destroyLocked releases every virtual span of an empty MiniHeap back to
// the arena. Caller holds the owning shard lock (cs.mu for size-classed
// spans, largeMu with cs == nil for large ones), which is what makes the
// page-map Unregister safe against racing lock-free lookups: a concurrent
// free that resolved this MiniHeap re-checks under the same lock and finds
// the slot cleared.
func (g *GlobalHeap) destroyLocked(cs *classState, mh *miniheap.MiniHeap) error {
	if !mh.IsLarge() {
		cs.reg.remove(mh)
	}
	pages := mh.SpanPages()
	for _, vbase := range mh.Spans() {
		g.arena.Unregister(vbase, pages)
		if err := g.arena.ReleaseSpan(vbase, pages); err != nil {
			return err
		}
	}
	return nil
}

// unbinLocked removes mh from whichever bin currently holds it, if any;
// its bin slot names the set. Caller holds cs.mu.
func (g *GlobalHeap) unbinLocked(cs *classState, mh *miniheap.MiniHeap) {
	switch tag := mh.Slot(miniheap.BinSlot).Tag; tag {
	case tagNone:
	case tagFull:
		cs.full.remove(mh)
	default:
		cs.binRemove(int(tag-tagBin0), mh)
	}
}

// AllocLarge serves allocations above the size-class maximum directly from
// the arena as page-aligned singleton MiniHeaps (§4.4.3).
func (g *GlobalHeap) AllocLarge(size int) (uint64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("core: invalid allocation size %d", size)
	}
	pages := (size + vm.PageSize - 1) / vm.PageSize
	vbase, phys, _, err := g.allocSpanPressured(pages)
	if err != nil {
		return 0, err
	}
	mh := miniheap.NewLarge(pages, vbase, phys)
	g.arena.Register(vbase, pages, mh)
	g.largeMu.Lock()
	g.large[vbase] = mh
	g.largeMu.Unlock()
	g.liveBytes.Add(int64(pages * vm.PageSize))
	g.allocs.Add(1)
	return vbase, nil
}

// Free handles any free that is not local to the calling thread's attached
// spans (§4.4.4): large objects, objects on detached spans, and objects on
// spans attached to other threads. Invalid pointers are counted and
// reported, not fatal — exactly how Mesh treats memory errors.
//
// Only the owning size class's shard lock (or largeMu) is taken, so frees
// in distinct classes proceed in parallel. The lock-free page-map lookup
// routes the free to its shard; the lookup is re-run under the shard lock
// for the authoritative owner, which serializes correctly with a meshing
// fix-up reassigning the span (the fix-up holds the same shard lock).
func (g *GlobalHeap) Free(addr uint64) error {
	return g.freeResolved(addr, g.arena.Lookup(addr))
}

// freeResolved performs one non-local free whose owner the caller already
// resolved through the page map (ThreadHeap.Free passes the owner its
// freeLocal lookup returned, saving a second routing lookup on every
// remote free). mh may be stale — it is used only to pick the shard,
// which is stable for an address — or nil for a wild pointer.
func (g *GlobalHeap) freeResolved(addr uint64, mh *miniheap.MiniHeap) error {
	reached, err := g.freeRouted(addr, mh)
	if reached {
		g.maybeMesh()
	}
	return err
}

// freeRouted routes one non-local free to its shard and performs it. It
// reports whether the free reached a detached span or large object — the
// events that participate in mesh triggering and timer re-arming (§4.5).
func (g *GlobalHeap) freeRouted(addr uint64, mh *miniheap.MiniHeap) (reachedGlobal bool, err error) {
	if mh == nil {
		g.invalidFree.Add(1)
		return false, fmt.Errorf("%w: %#x", ErrInvalidFree, addr)
	}
	if mh.IsLarge() {
		g.largeMu.Lock()
		defer g.largeMu.Unlock()
		return g.freeLargeLocked(addr)
	}
	cs := &g.classes[mh.SizeClass()]
	cs.lock()
	defer cs.unlock()
	return g.freeSmallLocked(cs, addr, false)
}

// freeQueuedStale completes one queued remote free whose span is no longer
// attached to the draining heap: the shard-locked path, minus the
// accounting that already happened at enqueue. It reports whether the free
// reached a detached span (a mesh-trigger event) and whether the locked
// path rejected it. Rejections — possible only through caller double frees
// racing span turnover — are counted in InvalidFree like any double free,
// since the originating Free already returned; the caller unwinds the
// rejected entry's enqueue-time accounting.
func (g *GlobalHeap) freeQueuedStale(addr uint64) (reachedGlobal, rejected bool) {
	mh := g.arena.Lookup(addr)
	if mh == nil || mh.IsLarge() {
		g.invalidFree.Add(1)
		return false, true
	}
	cs := &g.classes[mh.SizeClass()]
	cs.lock()
	defer cs.unlock()
	reached, err := g.freeSmallLocked(cs, addr, true)
	return reached, errors.Is(err, ErrDoubleFree) || errors.Is(err, ErrInvalidFree)
}

// batchPartition is a reusable per-class partition of one free batch;
// pooled so the global batch path allocates nothing in steady state.
type batchPartition struct {
	byClass [sizeclass.NumClasses][]uint64
	large   []uint64
}

// reset truncates every bucket, keeping its capacity for the next batch.
func (bp *batchPartition) reset() {
	for c := range bp.byClass {
		bp.byClass[c] = bp.byClass[c][:0]
	}
	bp.large = bp.large[:0]
}

var partitionPool = sync.Pool{New: func() any { return new(batchPartition) }}

// FreeBatch releases every address in addrs, partitioned by owning size
// class so each shard lock is taken once per batch — the amortization that
// keeps heavy-traffic batch frees off the lock ping-pong path. The mesh
// trigger runs at most once, after the whole batch — one batch is one
// "free that reaches the global heap" for §4.5's rate limiting. Invalid
// frees are reported (joined) but do not stop the rest of the batch,
// matching Mesh's tolerate-and-count treatment of memory errors (§4.4.4).
func (g *GlobalHeap) FreeBatch(addrs []uint64) error {
	return g.freeBatchResolved(addrs, nil)
}

// freeBatchResolved is FreeBatch with optionally pre-resolved owners:
// owners[i], when the slice is non-nil, is the page-map owner the caller
// already looked up for addrs[i] (ThreadHeap.FreeBatch passes the owners
// its freeLocal pass resolved, so a remote batch free pays one routing
// lookup, not two). Stale owners are fine — they are used only to pick
// the shard, which is stable for an address.
func (g *GlobalHeap) freeBatchResolved(addrs []uint64, owners []*miniheap.MiniHeap) error {
	var errs []error
	reachedGlobal := false

	// Partition by owning class; the per-shard pass below re-resolves each
	// address under the shard lock, so a routing lookup that raced a
	// reassignment still frees against the authoritative owner
	// (reassignment never changes an address's size class).
	bp := partitionPool.Get().(*batchPartition)
	defer func() {
		bp.reset()
		partitionPool.Put(bp)
	}()
	for i, addr := range addrs {
		var mh *miniheap.MiniHeap
		if owners != nil {
			mh = owners[i]
		} else {
			mh = g.arena.Lookup(addr)
		}
		switch {
		case mh == nil:
			g.invalidFree.Add(1)
			errs = append(errs, fmt.Errorf("%w: %#x", ErrInvalidFree, addr))
		case mh.IsLarge():
			bp.large = append(bp.large, addr)
		default:
			c := mh.SizeClass()
			bp.byClass[c] = append(bp.byClass[c], addr)
		}
	}
	for c := range bp.byClass {
		if len(bp.byClass[c]) == 0 {
			continue
		}
		cs := &g.classes[c]
		cs.lock()
		for _, addr := range bp.byClass[c] {
			reached, err := g.freeSmallLocked(cs, addr, false)
			if err != nil {
				errs = append(errs, err)
			}
			reachedGlobal = reachedGlobal || reached
		}
		cs.unlock()
	}
	if len(bp.large) > 0 {
		g.largeMu.Lock()
		for _, addr := range bp.large {
			reached, err := g.freeLargeLocked(addr)
			if err != nil {
				errs = append(errs, err)
			}
			reachedGlobal = reachedGlobal || reached
		}
		g.largeMu.Unlock()
	}
	if reachedGlobal {
		g.maybeMesh()
	}
	return errors.Join(errs...)
}

// freeSmallLocked performs one non-local free of a size-classed object.
// Caller holds cs.mu; the address was routed here by a lock-free lookup
// that resolved an owner of this class. The lookup is re-run under the
// lock: a meshing fix-up may have reassigned the span since (same class,
// same shard lock), or a concurrent free may have emptied and destroyed
// the span (slot now nil — reported as an invalid/double free, like the
// stale free it is). preAccounted marks a drained queue entry whose
// live-byte and free-count accounting already happened at enqueue.
func (g *GlobalHeap) freeSmallLocked(cs *classState, addr uint64, preAccounted bool) (reachedGlobal bool, err error) {
	mh := g.arena.Lookup(addr)
	if mh == nil || mh.IsLarge() || &g.classes[mh.SizeClass()] != cs {
		g.invalidFree.Add(1)
		return false, fmt.Errorf("%w: %#x", ErrInvalidFree, addr)
	}
	if mh.IsRetired() {
		return g.freeRetiredLocked(mh, addr, preAccounted)
	}
	off, err := mh.OffsetOf(addr)
	if err != nil {
		g.invalidFree.Add(1)
		return false, fmt.Errorf("%w: %v", ErrInvalidFree, err)
	}
	var herr error
	if mh.Hardened() && mh.Bitmap().IsSet(off) {
		// Hardened free protocol, before the bit clears (once it does the
		// owner may re-reserve the slot). The set-bit guard keeps wild and
		// double frees on the exact bitmap detection below — a clear slot
		// has no armed canary to judge. No poison precheck here either: the
		// bitmap detects double frees exactly on this path. Poison is
		// skipped while the span is pinned — a store into a write-protected
		// copy source would fault into the barrier the engine holds — and
		// the engine repoisons free slots when the pair settles.
		if data := g.physWindow(mh); data != nil {
			if !g.canaryOK(data, mh, off, nil) {
				if !mh.IsAttached() && !mh.IsPinned() {
					g.retireLocked(cs, mh)
					return g.freeRetiredLocked(mh, addr, preAccounted)
				}
				// Attached or pinned: detect and report; the owner's next
				// allocation check or the engine's copy audit retires the
				// span from a safe position. The free itself proceeds.
				herr = fmt.Errorf("%w: object %#x on span %#x", ErrHeapCorruption, addr, mh.SpanStart())
			} else if !mh.IsPinned() {
				poisonSlot(data, mh.ObjectSize(), off)
			}
		}
	}
	if !mh.Bitmap().Unset(off) {
		g.invalidFree.Add(1)
		return false, fmt.Errorf("%w: %#x", ErrDoubleFree, addr)
	}
	if !preAccounted {
		g.liveBytes.Add(int64(-mh.ObjectSize()))
		g.frees.Add(1)
	}

	if mh.IsAttached() {
		// Remote free to another thread's span: the bitmap update is all
		// that happens; the owner's shuffle vector is not touched (§3.2).
		return false, herr
	}
	if mh.IsPinned() {
		// Span is mid-mesh (§4.5.2): the bitmap update above is visible to
		// the engine's fix-up (bits only clear, so disjointness is
		// preserved), and the engine re-files the span when it unpins. It
		// must not be re-binned — or worse, destroyed — here.
		return true, herr
	}

	// Object belonged to the global heap: update its occupancy bin; the
	// caller may additionally trigger meshing (§3.2).
	g.unbinLocked(cs, mh)
	if perr := g.placeDetachedLocked(cs, mh); perr != nil {
		return true, perr
	}
	return true, herr
}

// freeLargeLocked destroys a large-object MiniHeap and releases its span.
// Caller holds largeMu; the address is re-resolved under it, so a racing
// double free observes the cleared page-map slot.
func (g *GlobalHeap) freeLargeLocked(addr uint64) (bool, error) {
	mh := g.arena.Lookup(addr)
	if mh == nil || !mh.IsLarge() {
		g.invalidFree.Add(1)
		return false, fmt.Errorf("%w: %#x", ErrInvalidFree, addr)
	}
	if !mh.Bitmap().Unset(0) {
		g.invalidFree.Add(1)
		return false, fmt.Errorf("%w: large object", ErrDoubleFree)
	}
	g.liveBytes.Add(int64(-mh.SpanBytes()))
	g.frees.Add(1)
	delete(g.large, mh.SpanStart())
	if err := g.destroyLocked(nil, mh); err != nil {
		return false, err
	}
	// A large free also reaches the global heap, so it participates in
	// mesh triggering and timer re-arming (§4.5).
	return true, nil
}

// noteAlloc records a small-object allocation by a thread heap.
func (g *GlobalHeap) noteAlloc(objSize int) {
	g.liveBytes.Add(int64(objSize))
	g.allocs.Add(1)
}

// noteAllocN records n small-object allocations totalling bytes in two
// atomic operations — the accounting half of the batch malloc path.
func (g *GlobalHeap) noteAllocN(bytes int64, n uint64) {
	g.liveBytes.Add(bytes)
	g.allocs.Add(n)
}

// noteLocalFree records a free handled entirely by a thread heap.
func (g *GlobalHeap) noteLocalFree(objSize int) {
	g.liveBytes.Add(int64(-objSize))
	g.frees.Add(1)
}

// noteLocalFreeN records n thread-local frees totalling bytes.
func (g *GlobalHeap) noteLocalFreeN(bytes int64, n uint64) {
	g.liveBytes.Add(-bytes)
	g.frees.Add(n)
}

// Stats returns a snapshot of heap state.
func (g *GlobalHeap) Stats() HeapStats {
	return HeapStats{
		RSS:    g.os.RSS(),
		Mapped: g.os.MappedBytes(),
		Live:   g.liveBytes.Load(),
		Allocs: g.allocs.Load(),
		Frees:  g.frees.Load(),
		Mesh: MeshStats{
			Passes:       g.meshPasses.Load(),
			SpansMeshed:  g.spansMeshed.Load(),
			BytesFreed:   g.bytesFreed.Load(),
			BytesCopied:  g.bytesCopied.Load(),
			TotalTime:    time.Duration(g.meshTime.Load()),
			LongestPause: time.Duration(g.longestPause.Load()),
			Pauses:       g.pauseHistogram(),
		},
		VM: g.os.Snapshot(),
		Remote: RemoteStats{
			Queued:  g.remoteQueued.Load(),
			Drained: g.remoteDrained.Load(),
		},
		InvalidFree: g.invalidFree.Load(),
		Harden:      g.harden.Snapshot(),
	}
}
