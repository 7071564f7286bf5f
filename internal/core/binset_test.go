package core

import (
	"slices"
	"testing"

	"repro/internal/miniheap"
	"repro/internal/rng"
	"repro/internal/sizeclass"
	"repro/internal/vm"
)

// refSet is the reference model of a binSet: a plain slice with append on
// add and swap-with-last on remove. The meshing decisions downstream of the
// bins (which span a refill picks, which candidates SplitMesher sees) depend
// on this exact order, so the intrusive implementation must reproduce it.
type refSet []*miniheap.MiniHeap

func (r *refSet) add(mh *miniheap.MiniHeap) { *r = append(*r, mh) }

func (r *refSet) remove(mh *miniheap.MiniHeap) {
	s := *r
	i := slices.Index(s, mh)
	s[i] = s[len(s)-1]
	*r = s[:len(s)-1]
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestBinSetMatchesReference runs random add/remove/pick sequences over one
// class's six sets — four occupancy bins and the full set sharing the bin
// slot, the registry on its own slot — and requires every set's order to
// equal the reference model's after every operation. Spans move between
// bins, the full set and the registry; adding a span whose slot is taken
// and removing a non-member must panic and leave the sets unchanged.
func TestBinSetMatchesReference(t *testing.T) {
	class, _ := sizeclass.ClassForSize(64)
	spans := make([]*miniheap.MiniHeap, 24)
	for i := range spans {
		spans[i] = miniheap.New(class, vm.ArenaBase+uint64(i)*uint64(sizeclass.SpanPages(class)*vm.PageSize), vm.PhysID(i+1))
	}
	var sets []*binSet
	for b := 0; b < miniheap.NumBins; b++ {
		sets = append(sets, newBinSet(miniheap.BinSlot, uint8(tagBin0+b)))
	}
	sets = append(sets, newBinSet(miniheap.BinSlot, tagFull), newBinSet(miniheap.RegSlot, tagReg))
	ref := make([]refSet, len(sets))
	// holder[k][span] is the index of the set holding span in slot k, or -1.
	var holder [2][]int
	for k := range holder {
		holder[k] = slices.Repeat([]int{-1}, len(spans))
	}
	setRnd, refRnd := rng.New(7), rng.New(7)
	ops := rng.New(11)

	for step := 0; step < 20000; step++ {
		si := int(ops.UintN(uint64(len(sets))))
		set, k := sets[si], sets[si].slot
		i := int(ops.UintN(uint64(len(spans))))
		mh := spans[i]
		switch op := ops.UintN(5); {
		case op < 2: // add
			if holder[k][i] >= 0 {
				mustPanic(t, "add of a span whose slot is taken", func() { set.add(mh) })
				break
			}
			set.add(mh)
			ref[si].add(mh)
			holder[k][i] = si
		case op < 4: // remove
			if holder[k][i] != si {
				mustPanic(t, "remove of a non-member", func() { set.remove(mh) })
				break
			}
			set.remove(mh)
			ref[si].remove(mh)
			holder[k][i] = -1
		default: // pick
			var want *miniheap.MiniHeap
			if n := len(ref[si]); n > 0 {
				want = ref[si][refRnd.UintN(uint64(n))]
			}
			if got := set.pick(setRnd); got != want {
				t.Fatalf("step %d: pick = %v, reference %v", step, got, want)
			}
		}
		for s := range sets {
			if !slices.Equal(sets[s].items, ref[s]) {
				t.Fatalf("step %d: set %d order diverged from the reference", step, s)
			}
		}
		for j, sp := range spans {
			for s, set := range sets {
				if got, want := set.contains(sp), holder[set.slot][j] == s; got != want {
					t.Fatalf("step %d: set %d contains span %d = %v, want %v", step, s, j, got, want)
				}
			}
		}
	}
}
