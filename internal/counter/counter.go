// Package counter provides Striped, the counter type for statistics that
// a lock-free fast path bumps on every call.
package counter

import "sync/atomic"

// numStripes is the number of cache lines a Striped counter spreads over.
const numStripes = 32

// Striped is a counter spread over numStripes padded cache lines, so callers
// adding on different stripes never share a hot line. Load sums the
// stripes; it is exact once adders are quiescent, and a racing Load may
// miss adds in flight. The zero value is zero and ready to use.
type Striped struct {
	stripes [numStripes]stripe
}

// stripe is one padded counter stripe (its own cache line).
type stripe struct {
	n atomic.Uint64
	_ [7]uint64 // pad to 64 bytes
}

// Inc adds one on the stripe that hint selects. Callers pass a value that
// spreads concurrent adders apart, such as a page number.
//
//mesh:lockfree
func (c *Striped) Inc(hint uint64) { c.stripes[hint%numStripes].n.Add(1) }

// Load returns the sum of the stripes.
func (c *Striped) Load() uint64 {
	var n uint64
	for i := range c.stripes {
		n += c.stripes[i].n.Load()
	}
	return n
}
