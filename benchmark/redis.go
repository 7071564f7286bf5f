package main

import (
	"math/rand/v2"

	"repro/mesh"
)

// redis-lru replays the paper's Redis experiment (§6.2.2) as published:
// a cache with 100 MiB maxmemory takes 700,000 SETs of 240-byte values,
// then 170,000 SETs of 492-byte values, evicting by Redis's 5-sample
// approximate LRU. Each entry is three objects: a 24-byte key, 48 bytes of
// dict entry and robj, and the value. The second phase's larger values
// evict old entries scattered across the first phase's spans, which only
// meshing can give back.
const (
	redisMaxMemory  = 100 << 20
	redisSmallSets  = 700_000
	redisLargeSets  = 170_000
	redisSmallValue = 240
	redisLargeValue = 492
	redisLRUSamples = 5
)

// redisSizes are the entry's object sizes by slot; the value's is filled
// in per entry.
var redisSizes = [3]int{24, 48, 0}

var redisLRU = workload{
	name:    "redis-lru",
	clients: 1,
	loop:    "1 client on a Thread (Redis's event loop keeps its heap); logical clock advanced 1 µs per call; a request is one SET with its evictions, then one GET",
	why:     "the paper's headline fragmentation case (§6.2.2): evictions free into detached spans and the mesh engine sets RSS; bypasses the front end, pool and remote queue",
	prepare: prepareRedis,
}

type redisRun struct {
	a    *mesh.Allocator
	clk  *mesh.LogicalClock
	seed uint64

	small int // entries below this index hold small values
	// evicted[evictAt[r]:evictAt[r+1]] are the entries SET r evicts; GET
	// r reads entry get[r].
	evictAt []int32
	evicted []int32
	get     []int32
	live    []int32 // entries alive after the last request

	objs [][3]mesh.Ptr // by entry
}

// prepareRedis runs the cache's eviction policy ahead of time: which
// entries a SET evicts and which key a GET reads depend only on the seed,
// never on the allocator, so the whole request script is input.
func prepareRedis(seed uint64, scale int) instance {
	clk := mesh.NewLogicalClock()
	r := &redisRun{
		a:     mesh.New(mesh.WithSeed(seed), mesh.WithClock(clk)),
		clk:   clk,
		seed:  seed,
		small: redisSmallSets / scale,
	}
	sets := r.small + redisLargeSets/scale
	maxMemory := redisMaxMemory / scale
	rng := rand.New(rand.NewPCG(seed, 0x7265646973)) // "redis"

	live := make([]int32, 0, sets)
	pos := make([]int32, sets)    // index of a live entry in live
	access := make([]int32, sets) // request that last touched an entry
	used := 0
	r.evictAt = make([]int32, 1, sets+1)
	r.evicted = make([]int32, 0, sets)
	r.get = make([]int32, sets)
	for e := range int32(sets) {
		pos[e], access[e] = int32(len(live)), e
		live = append(live, e)
		used += r.entryBytes(e)
		for used > maxMemory {
			victim := live[rng.IntN(len(live))]
			for range redisLRUSamples - 1 {
				if cand := live[rng.IntN(len(live))]; access[cand] < access[victim] {
					victim = cand
				}
			}
			last := live[len(live)-1]
			live[pos[victim]], pos[last] = last, pos[victim]
			live = live[:len(live)-1]
			used -= r.entryBytes(victim)
			r.evicted = append(r.evicted, victim)
		}
		r.evictAt = append(r.evictAt, int32(len(r.evicted)))
		g := live[rng.IntN(len(live))]
		access[g] = e
		r.get[e] = g
	}
	r.live = live
	r.objs = make([][3]mesh.Ptr, sets)
	return r
}

func (r *redisRun) valueSize(e int32) int {
	if int(e) < r.small {
		return redisSmallValue
	}
	return redisLargeValue
}

func (r *redisRun) entryBytes(e int32) int {
	return redisSizes[0] + redisSizes[1] + r.valueSize(e)
}

func (r *redisRun) object(e int32, slot int) object {
	n := redisSizes[slot]
	if slot == 2 {
		n = r.valueSize(e)
	}
	return object{p: r.objs[e][slot], w: patternWord(r.seed, uint64(e), slot), size: int32(n)}
}

func (r *redisRun) allocator() *mesh.Allocator { return r.a }

func (r *redisRun) requests(int) int { return len(r.get) }

func (r *redisRun) run(c *client) {
	th := r.a.NewThread()
	c.th, c.clk = th, r.clk
	for e := range int32(len(r.get)) {
		c.begin()
		for slot := range 3 {
			o := r.object(e, slot)
			o.p = c.malloc(int(o.size))
			r.objs[e][slot] = o.p
			c.put(o)
		}
		for _, v := range r.evicted[r.evictAt[e]:r.evictAt[e+1]] {
			for slot := range 3 {
				o := r.object(v, slot)
				c.checkFree(o)
			}
		}
		o := r.object(r.get[e], 2)
		c.check(o)
		c.end()
	}
	c.quiet(spThreadClose, th.Close)
	c.th, c.clk = nil, nil
}

func (r *redisRun) teardown(c *client) {
	for _, e := range r.live {
		for slot := range 3 {
			o := r.object(e, slot)
			c.checkFree(o)
		}
	}
}
