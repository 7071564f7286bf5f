package core

import (
	"repro/internal/miniheap"
	"repro/internal/rng"
)

// Set tags stored in a MiniHeap's membership slots. Bin b of a class
// carries tagBin0+b and the full set tagFull, both in the BinSlot; the
// class registry carries tagReg in the RegSlot. tagNone marks a free slot.
const (
	tagNone = 0
	tagBin0 = 1
	tagFull = tagBin0 + miniheap.NumBins
	tagReg  = 1
)

// binSet is a collection of MiniHeaps supporting O(1) insert, O(1) remove,
// and O(1) uniformly random selection — the operations the global heap's
// occupancy bins need (§3.1: "randomly selects a span from that bin").
// Membership is intrusive: each member's slot (miniheap.BinSlot or
// miniheap.RegSlot) holds the set's tag and the member's index in items,
// so no operation hashes. Insert appends; removal swaps the last element
// into the hole. Caller holds the class's shard lock.
type binSet struct {
	items []*miniheap.MiniHeap
	slot  int   // which membership slot of a MiniHeap this set maintains
	tag   uint8 // the tag members carry in that slot
}

func newBinSet(slot int, tag uint8) *binSet {
	return &binSet{slot: slot, tag: tag}
}

func (b *binSet) len() int { return len(b.items) }

// add appends mh. It panics if mh's slot is taken: a span sits in at most
// one bin (or the full set), and in the registry once.
func (b *binSet) add(mh *miniheap.MiniHeap) {
	s := mh.Slot(b.slot)
	if s.Tag != tagNone {
		panic("core: MiniHeap already in bin")
	}
	*s = miniheap.Slot{Tag: b.tag, Pos: len(b.items)}
	b.items = append(b.items, mh)
}

func (b *binSet) contains(mh *miniheap.MiniHeap) bool {
	s := mh.Slot(b.slot)
	return s.Tag == b.tag && s.Pos < len(b.items) && b.items[s.Pos] == mh
}

// remove deletes mh, moving the last element into its position. It panics
// if mh is not a member.
func (b *binSet) remove(mh *miniheap.MiniHeap) {
	if !b.contains(mh) {
		panic("core: MiniHeap not in bin")
	}
	s := mh.Slot(b.slot)
	last := len(b.items) - 1
	if s.Pos != last {
		moved := b.items[last]
		b.items[s.Pos] = moved
		moved.Slot(b.slot).Pos = s.Pos
	}
	b.items[last] = nil
	b.items = b.items[:last]
	*s = miniheap.Slot{}
}

// pick returns a uniformly random element without removing it; nil if
// empty.
func (b *binSet) pick(r *rng.RNG) *miniheap.MiniHeap {
	if len(b.items) == 0 {
		return nil
	}
	return b.items[r.UintN(uint64(len(b.items)))]
}

// appendAll appends every element to dst and returns it.
func (b *binSet) appendAll(dst []*miniheap.MiniHeap) []*miniheap.MiniHeap {
	return append(dst, b.items...)
}
