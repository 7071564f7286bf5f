package main

import (
	"math/rand/v2"

	"repro/mesh"
)

// pipeline-remote is a producer/consumer pipeline where every free is
// cross-thread: the producer allocates messages and writes their headers,
// the consumer verifies and frees them. A free goes to the owner's
// remote-free queue while the owner's span is still attached, and to the
// shard-locked fallback otherwise.
//
// The consumer holds the last 1,024 batches before freeing the oldest, so
// every message dies a fixed number of messages after its birth and the
// in-flight depth stays within a few batches of constant. A 1,024-batch
// channel instead would let the scheduler set the depth, and with it RSS,
// which then swings by a factor of ten between runs.
const (
	pipeMessages = 3_000_000
	pipeBatch    = 32
	pipeHeader   = 64
	pipeMinSize  = 64
	pipeMaxSize  = 1024
	pipeDelay    = 1024 // batches the consumer holds before freeing
	pipePerReq   = 16   // messages per request, on either side
)

var pipelineRemote = workload{
	name:    "pipeline-remote",
	clients: 2,
	loop:    "1 producer and 1 consumer on one shared Allocator, scalar; batches of 32 messages pass through a channel and die 1,024 batches later; a request is 16 messages on either side",
	why:     "every free is cross-thread, through the remote-free queue or the shard-locked fallback; objects die young, so mesh-engine changes must leave it flat",
	prepare: preparePipeline,
}

type batch [pipeBatch]object

type pipelineRun struct {
	a     *mesh.Allocator
	seed  uint64
	sizes []uint16 // message sizes
	delay int      // batches the consumer holds
	ch    chan batch
	held  []batch // the consumer's ring of held batches
	head  int     // oldest held batch
}

func preparePipeline(seed uint64, scale int) instance {
	n := pipeMessages / scale / pipeBatch * pipeBatch
	p := &pipelineRun{
		a:     mesh.New(mesh.WithSeed(seed)),
		seed:  seed,
		sizes: make([]uint16, n),
		delay: max(1, min(pipeDelay, n/pipeBatch/4)),
		// A few batches of slack let either side run ahead briefly
		// instead of blocking on every hand-off.
		ch: make(chan batch, 4),
	}
	rng := rand.New(rand.NewPCG(seed, 0x70697065)) // "pipe"
	for i := range p.sizes {
		p.sizes[i] = uint16(pipeMinSize + rng.IntN(pipeMaxSize-pipeMinSize+1))
	}
	p.held = make([]batch, 0, p.delay)
	return p
}

func (p *pipelineRun) allocator() *mesh.Allocator { return p.a }

func (p *pipelineRun) requests(i int) int {
	if i == 0 {
		return len(p.sizes) / pipePerReq
	}
	return (len(p.sizes) - p.delay*pipeBatch) / pipePerReq
}

func (p *pipelineRun) run(c *client) {
	if c.id == 0 {
		p.produce(c)
	} else {
		p.consume(c)
	}
}

func (p *pipelineRun) produce(c *client) {
	var b batch
	for m := 0; m < len(p.sizes); m += pipePerReq {
		c.begin()
		for i := m; i < m+pipePerReq; i++ {
			o := object{p: c.malloc(int(p.sizes[i])), w: patternWord(p.seed, uint64(i), 0), size: pipeHeader}
			c.put(o)
			b[i%pipeBatch] = o
		}
		c.end()
		if (m+pipePerReq)%pipeBatch == 0 {
			p.ch <- b
		}
	}
	close(p.ch)
}

func (p *pipelineRun) consume(c *client) {
	for b := range p.ch {
		if len(p.held) < p.delay {
			p.held = append(p.held, b)
			continue
		}
		old := &p.held[p.head]
		for i := 0; i < pipeBatch; i += pipePerReq {
			c.begin()
			for _, o := range old[i : i+pipePerReq] {
				c.checkFree(o)
			}
			c.end()
		}
		*old = b
		p.head = (p.head + 1) % p.delay
	}
}

func (p *pipelineRun) teardown(c *client) {
	for i := range p.held {
		for _, o := range p.held[i] {
			c.checkFree(o)
		}
	}
}
