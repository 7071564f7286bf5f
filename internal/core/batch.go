package core

import (
	"errors"
	"fmt"

	"repro/internal/sizeclass"
)

// This file implements the batched hot-path operations. They exist to
// amortize per-call overhead for heavy-traffic callers: one pooled-heap
// hand-off, one pair of atomic accounting updates, and (for non-local
// frees) one shard-lock acquisition per size class present in the batch
// cover a whole batch instead of one operation each. The allocation policy
// is identical to the scalar path — every object still comes off a shuffle
// vector in randomized order.

// MallocBatch allocates one object per entry of sizes, appending the
// resulting addresses to out (which may be nil) and returning the extended
// slice. The batch is atomic: if any allocation fails, every object
// already allocated by this call is freed again and the error is returned
// with no addresses delivered.
func (t *ThreadHeap) MallocBatch(sizes []int, out []uint64) ([]uint64, error) {
	if out == nil {
		out = make([]uint64, 0, len(sizes))
	}
	start := len(out)
	var bytes int64
	var n uint64
	var err error
	for _, size := range sizes {
		var addr uint64
		if class, ok := t.allocClassFor(size); ok {
			if addr, err = t.take(class); err == nil {
				bytes += int64(sizeclass.Size(class))
				n++
			}
		} else if size <= 0 {
			err = fmt.Errorf("core: invalid allocation size %d", size)
		} else {
			// Large objects account for themselves inside AllocLarge.
			addr, err = t.global.AllocLarge(size)
		}
		if err != nil {
			break
		}
		out = append(out, addr)
	}
	t.global.noteAllocN(bytes, n)
	if err != nil {
		_ = t.FreeBatch(out[start:])
		return out[:start], err
	}
	return out, nil
}

// FreeBatch releases every object in addrs. Frees local to this heap's
// attached spans are handled by the shuffle vectors with one accounting
// update for the whole batch; frees of objects on spans attached to other
// live heaps are message-passed to the owners' lock-free queues, coalesced
// into segments by owner (remote.go) — no shard lock at all; the remainder
// goes to the global heap in a single FreeBatch call, which partitions by
// owning size class and takes each shard lock once for the whole batch.
// Errors on individual addresses are joined; valid addresses in the same
// batch are still freed.
func (t *ThreadHeap) FreeBatch(addrs []uint64) error {
	var errs []error
	var bytes int64
	var n uint64
	nonLocal := t.scratch[:0]
	owners := t.ownerScratch[:0]
	quarOn := t.global.harden.QuarantineEnabled()
	for _, addr := range addrs {
		if quarOn {
			if handled, qerr := t.quarantineLocal(addr); handled {
				if qerr != nil {
					errs = append(errs, qerr)
				}
				continue
			}
		}
		size, ok, owner, err := t.freeLocal(addr)
		switch {
		case err != nil:
			errs = append(errs, err)
		case ok:
			bytes += int64(size)
			n++
		default:
			nonLocal = append(nonLocal, addr)
			owners = append(owners, owner)
		}
	}
	if n > 0 {
		t.global.noteLocalFreeN(bytes, n)
	}
	allOwners := owners // full-length view for the post-batch clear
	if len(nonLocal) > 0 {
		nonLocal, owners = t.queueRemoteBatch(nonLocal, owners)
	}
	if len(nonLocal) > 0 {
		if err := t.global.freeBatchResolved(nonLocal, owners); err != nil {
			errs = append(errs, err)
		}
	}
	t.scratch = nonLocal[:0]
	clear(allOwners) // don't pin destroyed MiniHeaps between batches
	t.ownerScratch = allOwners[:0]
	return errors.Join(errs...)
}
