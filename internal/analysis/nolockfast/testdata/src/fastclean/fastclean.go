// Package fastclean is the nolockfast negative fixture: annotated
// functions that keep the lock-free contract.
package fastclean

import (
	"math/bits"
	"runtime"
	"sync/atomic"
)

type ring struct {
	head atomic.Uint64
	tail atomic.Uint64
	buf  [64]uint64
}

// push is a pure reserve/commit loop: typed atomics, arithmetic, array
// indexing, and the polite Gosched spin are all allowed.
//
//mesh:lockfree
func (r *ring) push(v uint64) bool {
	for {
		h := r.head.Load()
		if h-r.tail.Load() >= uint64(len(r.buf)) {
			return false
		}
		if r.head.CompareAndSwap(h, h+1) {
			r.buf[h%uint64(len(r.buf))] = v
			return true
		}
		runtime.Gosched()
	}
}

// mask is an annotated leaf other fast paths may call.
//
//mesh:lockfree
func mask(x uint64) int { return bits.OnesCount64(x) }

// weight calls only annotated and builtin callees.
//
//mesh:lockfree
func (r *ring) weight() int {
	n := 0
	for _, w := range r.buf {
		n += mask(w)
	}
	return n
}

// tryRecv is a non-blocking channel try: select with a default is fine.
//
//mesh:lockfree
func tryRecv(ch chan uint64) (uint64, bool) {
	select {
	case v := <-ch:
		return v, true
	default:
		return 0, false
	}
}

// pack builds a value composite on the stack; no heap traffic.
//
//mesh:lockfree
func pack(b byte) [2]byte {
	return [2]byte{b, b + 1}
}

func refill() {} // deliberately unannotated

// pop exits to the refill slow path through a marked line.
//
//mesh:lockfree
func (r *ring) pop() (uint64, bool) {
	t := r.tail.Load()
	if t == r.head.Load() {
		refill() //mesh:slowpath — empty-ring refill is the slow path
		return 0, false
	}
	if r.tail.CompareAndSwap(t, t+1) {
		return r.buf[t%uint64(len(r.buf))], true
	}
	return 0, false
}

// Sink shows annotation on an interface method: calling through the
// interface gets credit, and implementations are checked on their own.
type Sink interface {
	// Put consumes one value on the caller's fast path.
	//
	//mesh:lockfree
	Put(v uint64)
}

//mesh:lockfree
func drive(s Sink, v uint64) {
	s.Put(v)
}

// box is a generic container: calls to its annotated methods on an
// instantiated receiver get credit like any other annotated callee.
type box[T any] struct {
	v atomic.Pointer[T]
}

//mesh:lockfree
func (b *box[T]) get() *T { return b.v.Load() }

//mesh:lockfree
func useBox(b *box[int]) bool { return b.get() != nil }
