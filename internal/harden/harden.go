// Package harden implements the detection half of the allocator's heap
// hardening: per-object trailing canaries, poison-on-free, and the
// delayed-reuse quarantine ring. The containment half — span retirement —
// lives in internal/core, which owns the locks and the page map; this
// package is the pure, lock-free substrate underneath it.
//
// The protocol, per object slot of a hardened span:
//
//   - The last CanarySize bytes of every slot are a guard word derived
//     from the slot's (class, offset) position, written at allocation and
//     checked at free, at mesh-copy time (compaction doubles as an audit
//     sweep), and by the background auditor. The word is position-keyed,
//     so an overflow that copies one object's trailer into a neighbour
//     still mismatches.
//   - Freed slots are filled with PoisonByte over the first
//     PoisonLen(objSize) payload bytes (fresh spans are poisoned whole at
//     mint time), and the fill is verified before a slot is handed out
//     again — a use-after-free write is caught at the next allocation.
//     A free that finds its payload already fully poisoned is reported as
//     a probabilistic double free: this restores the cross-thread
//     double-free detection the message-passing remote-free queues
//     deliberately gave up.
//   - With quarantine on, freed slots additionally park in a per-heap
//     delayed-reuse Ring before re-entering a shuffle vector, widening the
//     detection window for both classes of bug.
//
// Every check funnels through the Plane's counters: at quiescence
// checks == violations + passes, exactly — the litmus invariant the
// -race stress pins.
package harden

import "sync/atomic"

const (
	// CanarySize is the width of the trailing guard word. Object slots of
	// a hardened span lose this many usable bytes; all size classes are
	// multiples of 16, so the word is always 8-byte aligned (its own race-
	// detector granule — client payload writes never share it).
	CanarySize = 8

	// PoisonByte fills freed payload bytes (the slab allocator's
	// POISON_FREE pattern).
	PoisonByte = 0x6b

	// PoisonMax caps the poisoned/verified prefix of a freed slot, keeping
	// the free and allocate fast paths O(1) in the object size.
	PoisonMax = 32

	// PoisonWord is PoisonByte replicated across a 64-bit word: the fill
	// and verify loops run word-at-a-time (PoisonLen is always a multiple
	// of 8), which is what keeps the hardened fast paths near the
	// un-hardened ones.
	PoisonWord = 0x6b6b6b6b6b6b6b6b
)

// PoisonLen returns how many payload bytes of a slot with the given object
// size are poisoned on free and verified on reuse. Always a multiple of 8,
// so callers may fill and compare in PoisonWord units.
//
//mesh:lockfree
func PoisonLen(objSize int) int {
	n := objSize - CanarySize
	if n > PoisonMax {
		n = PoisonMax
	}
	return n &^ 7
}

// splitmix64 is the canary keying hash — one multiply-xor chain, no
// allocation, no table.
//
//mesh:lockfree
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Plane flag bits (one atomic word holds both, so the combined
// "is any hardening on" load on the malloc/free fast paths is exactly one
// atomic operation — the disabled-path budget).
const (
	flagEnabled    = 1 << 0
	flagQuarantine = 1 << 1
	// flagEver is set the first time hardening is enabled and never
	// cleared. Size routing keys on it rather than on flagEnabled: once any
	// hardened span exists, every allocation must keep reserving canary
	// space, or a post-disable allocation served from a pre-disable span
	// could hand out a payload that overlaps the slot's guard word.
	flagEver = 1 << 2
)

// Plane is the hardening control plane of one heap: the enable flags, the
// canary secret, and the detection counters behind stats.harden.*. All
// methods are safe for concurrent use; the fast-path reads are single
// atomic loads.
type Plane struct {
	flags  atomic.Uint32
	secret uint64 // canary keying material, fixed at construction

	// checks is derived (violations + passes) rather than stored: one
	// atomic add per verification instead of two keeps the hardened fast
	// paths cheap, and the checks == violations + passes relation holds by
	// construction.
	violations atomic.Uint64 // verifications that found corruption
	passes     atomic.Uint64 // verifications that found none

	quarantined atomic.Uint64 // frees parked in quarantine rings (total)
	unquarned   atomic.Uint64 // quarantined frees settled (popped)

	retired     atomic.Uint64 // corrupt spans retired
	retiredObjs atomic.Uint64 // live objects lost to retired spans
	audited     atomic.Uint64 // spans walked by the background auditor
}

// AuditSpans is the background auditor's span budget per daemon wake
// once hardening has been enabled.
const AuditSpans = 8

// NewPlane returns a disabled plane keyed by seed.
func NewPlane(seed uint64) *Plane {
	return &Plane{secret: splitmix64(seed ^ 0x6861726465)} // "harde"
}

// Canary returns the guard word for slot off of a span in size class
// class. Position-keyed: the same physical bytes are valid in exactly one
// slot of one class, and the value survives meshing because a slot keeps
// its offset when its virtual span remaps onto a new physical span.
//
//mesh:lockfree
func (p *Plane) Canary(class, off int) uint64 {
	return splitmix64(p.secret^uint64(class)<<8^uint64(off)) | 1
}

// Enabled reports whether new spans are minted hardened (and routing
// reserves canary space). One atomic load — the entire disabled-path cost.
//
//mesh:lockfree
func (p *Plane) Enabled() bool { return p.flags.Load()&flagEnabled != 0 }

// QuarantineEnabled reports whether hardened frees divert through the
// delayed-reuse ring.
//
//mesh:lockfree
func (p *Plane) QuarantineEnabled() bool { return p.flags.Load()&flagQuarantine != 0 }

// EverEnabled reports whether hardening has ever been on. Size routing
// keys on this sticky bit (see flagEver): hardened spans outlive a
// runtime disable, and allocations they serve must still fit above the
// guard word.
//
//mesh:lockfree
func (p *Plane) EverEnabled() bool { return p.flags.Load()&flagEver != 0 }

// SetEnabled toggles hardening. Spans already minted keep their hardened
// flag either way: enabling affects spans created afterwards, and
// disabling never strands a canary-carrying object without its checks.
func (p *Plane) SetEnabled(on bool) {
	if on {
		p.setFlag(flagEver, true)
	}
	p.setFlag(flagEnabled, on)
}

// SetQuarantine toggles the delayed-reuse ring for hardened frees.
func (p *Plane) SetQuarantine(on bool) { p.setFlag(flagQuarantine, on) }

func (p *Plane) setFlag(bit uint32, on bool) {
	for {
		old := p.flags.Load()
		next := old &^ bit
		if on {
			next = old | bit
		}
		if p.flags.CompareAndSwap(old, next) {
			return
		}
	}
}

// NotePass records one verification that found no corruption.
//
//mesh:lockfree
func (p *Plane) NotePass() { p.passes.Add(1) }

// NotePassN records n clean verifications at once — the flush half of the
// thread-local pass batching that keeps the hardened fast paths at zero
// atomic counter traffic (violations are never batched; they publish
// immediately).
func (p *Plane) NotePassN(n uint64) { p.passes.Add(n) }

// NoteViolation records one verification that found corruption.
//
//mesh:lockfree
func (p *Plane) NoteViolation() { p.violations.Add(1) }

// NoteQuarantined records n frees parked in a quarantine ring.
//
//mesh:lockfree
func (p *Plane) NoteQuarantined(n uint64) { p.quarantined.Add(n) }

// NoteUnquarantined records n quarantined frees settled.
//
//mesh:lockfree
func (p *Plane) NoteUnquarantined(n uint64) { p.unquarned.Add(n) }

// NoteRetired records one span retirement losing objs live objects.
func (p *Plane) NoteRetired(objs uint64) {
	p.retired.Add(1)
	p.retiredObjs.Add(objs)
}

// NoteUnretired gives one object back: a retired span's slot whose free
// had already been accounted at remote-free enqueue time settles through
// the drain path after the retirement counted it lost.
func (p *Plane) NoteUnretired() { p.retiredObjs.Add(^uint64(0)) }

// NoteAudited records n spans walked by the background auditor.
func (p *Plane) NoteAudited(n uint64) { p.audited.Add(n) }

// Stats is a point-in-time snapshot of the plane's counters.
type Stats struct {
	Checks      uint64 // verifications performed (canary + poison)
	Violations  uint64 // verifications that found corruption
	Passes      uint64 // verifications that found none
	Quarantined uint64 // frees parked in quarantine rings
	Settled     uint64 // quarantined frees settled
	Retired     uint64 // corrupt spans retired
	LostObjects uint64 // live objects lost to retired spans
	Audited     uint64 // spans walked by the background auditor
}

// Snapshot returns the current counters. Reads are individually atomic,
// not mutually consistent; exact relations (checks == violations + passes)
// hold at quiescence.
func (p *Plane) Snapshot() Stats {
	violations, passes := p.violations.Load(), p.passes.Load()
	return Stats{
		Checks:      violations + passes,
		Violations:  violations,
		Passes:      passes,
		Quarantined: p.quarantined.Load(),
		Settled:     p.unquarned.Load(),
		Retired:     p.retired.Load(),
		LostObjects: p.retiredObjs.Load(),
		Audited:     p.audited.Load(),
	}
}
