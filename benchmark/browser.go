package main

import (
	"math/rand/v2"
	"sync"

	"repro/mesh"
)

// browser-bg follows Speedometer-like page phases in a browser with
// background meshing on (§4.5): each client builds a DOM of 24,000
// objects per phase, Memsets each one whole, then tears 92% down in
// random order, handing 15% of those to the other client to free. The
// other 8% go to a cache that is halved every 12 phases. This is the only
// workload where the daemon meshes while clients write.
const (
	browserClients   = 2
	browserPhases    = 60
	browserObjects   = 24_000 // per client per phase
	browserCachePct  = 8
	browserHandPct   = 15 // of the objects torn down
	browserHalveEach = 12 // phases
	browserChunk     = 16 // operations per request
)

// domSizes is a DOM-node size mix: mostly small nodes and strings, with a
// tail of multi-kilobyte text and style buffers. The mix is synthetic: the
// weights are assumed, not taken from a published or measured Firefox or
// Speedometer allocation-size distribution, so this workload's RSS is not
// comparable to the paper's Firefox numbers.
var domSizes = []sizeBand{
	{16, 32, 30}, {33, 64, 25}, {65, 128, 18}, {129, 256, 12},
	{257, 512, 8}, {513, 1024, 4}, {1025, 2048, 2}, {2049, 4096, 1},
}

// Fates of an object at its phase's teardown.
const (
	fateFree byte = iota
	fateHand
	fateCache
)

var browserBG = workload{
	name:    "browser-bg",
	clients: browserClients,
	loop:    "2 clients on one shared Allocator with the meshing daemon; 60 phases of 24,000 Memset objects each, 92% torn down (15% of those by the other client), 8% cached; a request is 16 operations",
	why:     "the only workload where the daemon meshes while clients write (meshd, write barrier, vm seqlock retries); synthetic DOM size mix, RSS not comparable to the paper",
	prepare: prepareBrowser,
}

type browserRun struct {
	a        *mesh.Allocator
	seed     uint64
	in       []browserInput
	mail     [2]mailbox
	doneWG   sync.WaitGroup // both clients finished their phases
	caches   [2][]object
	perPhase int
}

// browserInput is one client's script.
type browserInput struct {
	sizes []uint16 // by object, phase-major
	fate  []byte   // by object
	order []int32  // teardown order within each phase, phase-major
}

// mailbox carries objects one client hands to the other to free.
type mailbox struct {
	mu   sync.Mutex
	objs []object
}

func (m *mailbox) post(objs []object) {
	m.mu.Lock()
	m.objs = append(m.objs, objs...)
	m.mu.Unlock()
}

// take swaps the mailbox's contents for spare, an empty slice whose
// storage the mailbox reuses.
func (m *mailbox) take(spare []object) []object {
	m.mu.Lock()
	objs := m.objs
	m.objs = spare
	m.mu.Unlock()
	return objs
}

func prepareBrowser(seed uint64, scale int) instance {
	b := &browserRun{
		a:        mesh.New(mesh.WithSeed(seed), mesh.WithBackgroundMeshing(true)),
		seed:     seed,
		perPhase: browserObjects / scale,
	}
	total := browserPhases * b.perPhase
	for i := range browserClients {
		rng := rand.New(rand.NewPCG(seed, 0x62726f77+uint64(i))) // "brow"
		in := browserInput{
			sizes: make([]uint16, total),
			fate:  make([]byte, total),
			order: make([]int32, total),
		}
		for j := range total {
			in.sizes[j] = uint16(drawSize(rng, domSizes))
			switch x := rng.IntN(100 * 100); {
			case x < browserCachePct*100:
				in.fate[j] = fateCache
			case x < browserCachePct*100+browserHandPct*(100-browserCachePct):
				in.fate[j] = fateHand
			}
		}
		for ph := range browserPhases {
			order := in.order[ph*b.perPhase : (ph+1)*b.perPhase]
			for j := range order {
				order[j] = int32(j)
			}
			rng.Shuffle(len(order), func(x, y int) { order[x], order[y] = order[y], order[x] })
		}
		b.in = append(b.in, in)
		b.mail[i].objs = make([]object, 0, b.perPhase)
		b.caches[i] = make([]object, 0, b.perPhase*browserHalveEach*browserCachePct/50)
	}
	b.doneWG.Add(browserClients)
	return b
}

func (b *browserRun) allocator() *mesh.Allocator { return b.a }

// requests is an upper bound: hand-offs arrive in whatever requests the
// scheduler lets them.
func (b *browserRun) requests(int) int {
	return 3*browserPhases*b.perPhase/browserChunk + 4*browserPhases
}

// browserClient groups one client's operations into requests of
// browserChunk operations each.
type browserClient struct {
	*client
	b        *browserRun
	ops      int
	out      []object // hand-offs of the current request
	received []object
}

func (bc *browserClient) op() {
	if bc.ops == 0 {
		bc.begin()
	}
}

func (bc *browserClient) opDone() {
	bc.ops++
	if bc.ops == browserChunk {
		bc.finish()
	}
}

// finish ends the current request, posting its hand-offs to the peer.
func (bc *browserClient) finish() {
	if bc.ops == 0 {
		return
	}
	if len(bc.out) > 0 {
		bc.b.mail[1-bc.id].post(bc.out)
		bc.out = bc.out[:0]
	}
	bc.end()
	bc.ops = 0
}

// drain frees every object the peer has handed over so far.
func (bc *browserClient) drain() {
	objs := bc.b.mail[bc.id].take(bc.received[:0])
	for _, o := range objs {
		bc.op()
		bc.checkFillFree(o)
		bc.opDone()
	}
	bc.finish()
	bc.received = objs
}

func (b *browserRun) run(c *client) {
	bc := &browserClient{client: c, b: b,
		out:      make([]object, 0, browserChunk),
		received: make([]object, 0, b.perPhase)}
	in := &b.in[c.id]
	phase := make([]object, b.perPhase)
	cache := b.caches[c.id]
	for ph := range browserPhases {
		bc.drain()
		base := ph * b.perPhase
		for j := range phase {
			bc.op()
			id := uint64(c.id)<<40 | uint64(base+j)
			o := object{w: patternWord(b.seed, id, 0), size: int32(in.sizes[base+j])}
			o.p = bc.malloc(int(o.size))
			if o.p != 0 {
				bc.memset(o.p, fillByte(o.w), int(o.size))
			}
			phase[j] = o
			bc.opDone()
		}
		for _, j := range in.order[base : base+b.perPhase] {
			bc.op()
			switch o := phase[j]; in.fate[base+int(j)] {
			case fateFree:
				bc.checkFillFree(o)
			case fateHand:
				bc.out = append(bc.out, o)
			case fateCache:
				cache = append(cache, o)
			}
			bc.opDone()
		}
		bc.finish()
		if (ph+1)%browserHalveEach == 0 {
			half := len(cache) / 2
			for _, o := range cache[:half] {
				bc.op()
				bc.checkFillFree(o)
				bc.opDone()
			}
			bc.finish()
			cache = cache[:copy(cache, cache[half:])]
		}
	}
	b.doneWG.Done()
	b.doneWG.Wait()
	bc.drain()
	b.caches[c.id] = cache
}

func (b *browserRun) teardown(c *client) {
	for _, cache := range b.caches {
		for _, o := range cache {
			c.checkFillFree(o)
		}
	}
}
