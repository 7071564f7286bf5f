package main

import (
	"math/rand/v2"

	"repro/mesh"
)

// server-mixed is a request-serving process on the drop-in malloc path:
// two clients share one Allocator and call the scalar Malloc/Free. Each
// request frees the objects of the request 16 earlier, replaces one of
// the client's session objects, and allocates 2–8 objects from a
// synthetic size mix (webSizes). Session churn scatters long-lived survivors across spans, so
// inline meshing has work to do.
const (
	serverClients  = 2
	serverRequests = 200_000 // per client
	serverSessions = 16_384  // split evenly between the clients
	serverWindow   = 16      // a request's objects die this many requests later
	serverMinObjs  = 2
	serverMaxObjs  = 8
)

// webSizes is the size mix of a request's objects: byte ranges with
// relative weights, heavy on small headers and strings with a tail of
// kilobyte buffers. The mix is synthetic: the weights are assumed, not
// taken from a published or measured allocation-size distribution, so
// this workload's RSS is not comparable to any number in the paper.
var webSizes = []sizeBand{
	{16, 32, 25}, {33, 64, 20}, {65, 128, 18}, {129, 256, 14},
	{257, 512, 11}, {513, 1024, 8}, {1025, 2048, 4},
}

type sizeBand struct{ lo, hi, weight int }

// drawSize picks a band by weight, then a size uniformly inside it.
func drawSize(rng *rand.Rand, bands []sizeBand) int {
	total := 0
	for _, b := range bands {
		total += b.weight
	}
	x := rng.IntN(total)
	for _, b := range bands {
		if x < b.weight {
			return b.lo + rng.IntN(b.hi-b.lo+1)
		}
		x -= b.weight
	}
	panic("unreachable")
}

var serverMixed = workload{
	name:    "server-mixed",
	clients: serverClients,
	loop:    "2 clients on one shared Allocator, scalar Malloc/Free; a request frees the objects of the request 16 earlier, replaces a session object and allocates 2-8 objects",
	why:     "the drop-in malloc path: a front-end stripe hit, then the thread heap; session churn scatters survivors so inline meshing has work; synthetic size mix, not from a trace",
	prepare: prepareServer,
}

type serverRun struct {
	a    *mesh.Allocator
	seed uint64
	in   []serverInput
	// Per client: the live session objects, and the objects of the last
	// serverWindow requests.
	sessions [][]object
	window   [][serverWindow][]object
}

// serverInput is one client's request script.
type serverInput struct {
	nobj     []uint8  // objects allocated by each request
	sizes    []uint16 // their sizes, concatenated
	sessSlot []uint16 // session replaced by each request
	sessSize []uint16 // size of its new object
}

func prepareServer(seed uint64, scale int) instance {
	s := &serverRun{a: mesh.New(mesh.WithSeed(seed)), seed: seed}
	reqs := serverRequests / scale
	slots := serverSessions / 2 / scale
	for i := range serverClients {
		rng := rand.New(rand.NewPCG(seed, 0x736572766572+uint64(i))) // "server"
		in := serverInput{
			nobj:     make([]uint8, reqs),
			sizes:    make([]uint16, 0, reqs*(serverMinObjs+serverMaxObjs)/2+reqs),
			sessSlot: make([]uint16, reqs),
			sessSize: make([]uint16, reqs),
		}
		for r := range reqs {
			n := serverMinObjs + rng.IntN(serverMaxObjs-serverMinObjs+1)
			in.nobj[r] = uint8(n)
			for range n {
				in.sizes = append(in.sizes, uint16(drawSize(rng, webSizes)))
			}
			in.sessSlot[r] = uint16(rng.IntN(slots))
			in.sessSize[r] = uint16(drawSize(rng, webSizes))
		}
		s.in = append(s.in, in)
		s.sessions = append(s.sessions, make([]object, slots))
		var w [serverWindow][]object
		for j := range w {
			w[j] = make([]object, 0, serverMaxObjs)
		}
		s.window = append(s.window, w)
	}
	return s
}

func (s *serverRun) allocator() *mesh.Allocator { return s.a }

func (s *serverRun) requests(i int) int { return len(s.in[i].nobj) }

func (s *serverRun) run(c *client) {
	in, sessions, window := &s.in[c.id], s.sessions[c.id], &s.window[c.id]
	k := 0 // next size in in.sizes
	for r := range len(in.nobj) {
		id := uint64(c.id)<<32 | uint64(r)
		c.begin()
		old := &window[r%serverWindow]
		for _, o := range *old {
			c.checkFree(o)
		}
		*old = (*old)[:0]

		sess := &sessions[in.sessSlot[r]]
		c.checkFree(*sess)
		*sess = object{w: patternWord(s.seed, id, 0), size: int32(in.sessSize[r])}
		sess.p = c.malloc(int(sess.size))
		c.put(*sess)

		for slot := range int(in.nobj[r]) {
			o := object{w: patternWord(s.seed, id, 1+slot), size: int32(in.sizes[k])}
			k++
			o.p = c.malloc(int(o.size))
			c.put(o)
			*old = append(*old, o)
		}
		c.end()
	}
}

func (s *serverRun) teardown(c *client) {
	for i := range s.in {
		for _, o := range s.sessions[i] {
			c.checkFree(o)
		}
		for _, objs := range s.window[i] {
			for _, o := range objs {
				c.checkFree(o)
			}
		}
	}
}
