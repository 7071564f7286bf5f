package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/mesh"
)

// Every call a workload makes into the allocator goes through a client,
// which counts it, checks its error, and — on a traced request — records
// a span around it. The spans live in the benchmark, not the program, so
// the same allocator code runs traced and untraced.

const (
	traceEvery = 16   // a traced repeat records every 16th request
	rssEvery   = 1000 // client 0 samples RSS every 1,000 requests
	maxErrors  = 8    // failure messages kept per client
)

// spanKind names a span. Children of a request are the public calls it
// made; quiescent-phase calls have no parent request.
type spanKind uint8

const (
	spNone spanKind = iota
	spRequest
	spMeshMalloc
	spMeshFree
	spCoreMalloc
	spCoreFree
	spRead
	spWrite
	spMemset
	spFlush
	spMeshPass
	spThreadClose
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spNone:        "",
	spRequest:     "request",
	spMeshMalloc:  "mesh.malloc",
	spMeshFree:    "mesh.free",
	spCoreMalloc:  "core.malloc",
	spCoreFree:    "core.free",
	spRead:        "vm.read",
	spWrite:       "vm.write",
	spMemset:      "vm.memset",
	spFlush:       "mesh.flush",
	spMeshPass:    "core.mesh_pass",
	spThreadClose: "core.thread_close",
}

// quietReq is the request number of spans recorded outside any request.
const quietReq = ^uint32(0)

type span struct {
	start, end   int64
	req          uint32
	kind, parent spanKind
}

var epoch = time.Now()

// now is monotonic nanoseconds since start-up.
func now() int64 { return int64(time.Since(epoch)) }

// client is one closed-loop caller: it issues a request, waits for it,
// and issues the next.
type client struct {
	id  int
	a   *mesh.Allocator
	th  *mesh.Thread       // when set, Malloc/Free go to this pinned heap
	clk *mesh.LogicalClock // when set, advanced 1 µs per Malloc/Free

	traced    bool
	sampleRSS bool

	req     uint32
	reqT0   int64
	tracing bool // the current request is traced

	lat   []int64 // per-request latency, ns
	spans []span
	rss   []int64
	live  []int64

	mallocs, frees, dataCalls uint64
	checks, failed            uint64
	errs                      []string

	buf, want []byte
}

func newClient(id int, a *mesh.Allocator, traced bool, requests int) *client {
	c := &client{
		id: id, a: a, traced: traced, sampleRSS: id == 0,
		lat:  make([]int64, 0, requests),
		buf:  make([]byte, maxObject),
		want: make([]byte, maxObject),
	}
	if traced {
		// A traced request makes a few dozen calls at most; the buffer
		// is sized up front so recording never allocates mid-run.
		c.spans = make([]span, 0, requests/traceEvery*40+64)
	}
	if c.sampleRSS {
		c.rss = make([]int64, 0, requests/rssEvery+1)
		c.live = make([]int64, 0, requests/rssEvery+1)
	}
	return c
}

// maxObject is the largest object any workload allocates.
const maxObject = 4096

func (c *client) begin() {
	c.tracing = c.traced && c.req%traceEvery == 0
	c.reqT0 = now()
}

func (c *client) end() {
	t := now()
	c.lat = append(c.lat, t-c.reqT0)
	if c.tracing {
		c.spans = append(c.spans, span{start: c.reqT0, end: t, req: c.req, kind: spRequest})
		c.tracing = false
	}
	c.req++
	if c.sampleRSS && c.req%rssEvery == 0 {
		c.rss = append(c.rss, c.a.RSS())
		c.live = append(c.live, c.a.Stats().Live)
	}
}

func (c *client) spanStart() int64 {
	if c.tracing {
		return now()
	}
	return 0
}

func (c *client) spanEnd(k spanKind, t0 int64) {
	if c.tracing {
		c.spans = append(c.spans, span{start: t0, end: now(), req: c.req, kind: k, parent: spRequest})
	}
}

// quiet runs one call of the timed quiescent phase. It is always timed,
// and recorded as a parentless span on traced repeats.
func (c *client) quiet(k spanKind, f func() error) time.Duration {
	t0 := now()
	err := f()
	t1 := now()
	if c.traced {
		c.spans = append(c.spans, span{start: t0, end: t1, req: quietReq, kind: k})
	}
	if err != nil {
		c.fail(spanNames[k], err)
	}
	return time.Duration(t1 - t0)
}

func (c *client) fail(op string, err error) {
	c.failed++
	if len(c.errs) < maxErrors {
		c.errs = append(c.errs, fmt.Sprintf("client %d request %d: %s: %v", c.id, c.req, op, err))
	}
}

func (c *client) tick() {
	if c.clk != nil {
		c.clk.Advance(time.Microsecond)
	}
}

func (c *client) malloc(size int) mesh.Ptr {
	var p mesh.Ptr
	var err error
	t0 := c.spanStart()
	if c.th != nil {
		p, err = c.th.Malloc(size)
		c.spanEnd(spCoreMalloc, t0)
	} else {
		p, err = c.a.Malloc(size)
		c.spanEnd(spMeshMalloc, t0)
	}
	c.mallocs++
	c.tick()
	if err != nil {
		c.fail("malloc", err)
		return 0
	}
	return p
}

func (c *client) free(p mesh.Ptr) {
	var err error
	t0 := c.spanStart()
	if c.th != nil {
		err = c.th.Free(p)
		c.spanEnd(spCoreFree, t0)
	} else {
		err = c.a.Free(p)
		c.spanEnd(spMeshFree, t0)
	}
	c.frees++
	c.tick()
	if err != nil {
		c.fail("free", err)
	}
}

func (c *client) write(p mesh.Ptr, data []byte) {
	t0 := c.spanStart()
	err := c.a.Write(p, data)
	c.spanEnd(spWrite, t0)
	c.dataCalls++
	if err != nil {
		c.fail("write", err)
	}
}

func (c *client) read(p mesh.Ptr, buf []byte) bool {
	t0 := c.spanStart()
	err := c.a.Read(p, buf)
	c.spanEnd(spRead, t0)
	c.dataCalls++
	if err != nil {
		c.fail("read", err)
		return false
	}
	return true
}

func (c *client) memset(p mesh.Ptr, v byte, n int) {
	t0 := c.spanStart()
	err := c.a.Memset(p, v, n)
	c.spanEnd(spMemset, t0)
	c.dataCalls++
	if err != nil {
		c.fail("memset", err)
	}
}

// An object's contents derive from (seed, object id, slot), so any reader
// can check them without a copy being kept.

type object struct {
	p    mesh.Ptr
	w    uint64 // pattern word
	size int32  // bytes that hold the pattern: the whole object, or a message header
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// patternWord is the word an object's contents are generated from.
func patternWord(seed, id uint64, slot int) uint64 {
	return mix64(seed ^ mix64(id<<8|uint64(slot)))
}

// fillPattern writes pattern w into buf: word i is w xor a multiple of i,
// so a misplaced or truncated copy of another object does not match.
func fillPattern(buf []byte, w uint64) {
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], w^uint64(i)*0x9e3779b97f4a7c15)
	}
	v := w ^ uint64(i)*0x9e3779b97f4a7c15
	for ; i < len(buf); i++ {
		buf[i] = byte(v)
		v >>= 8
	}
}

// fillByte is the Memset value of an object with pattern word w; never 0,
// so an object that was never written does not pass.
func fillByte(w uint64) byte { return byte(w>>56) | 1 }

// put writes o's pattern.
func (c *client) put(o object) {
	n := int(o.size)
	if o.p == 0 {
		return
	}
	fillPattern(c.buf[:n], o.w)
	c.write(o.p, c.buf[:n])
}

// check reads o's pattern bytes and compares them with the pattern.
func (c *client) check(o object) {
	n := int(o.size)
	if o.p == 0 || !c.read(o.p, c.buf[:n]) {
		return
	}
	c.checks++
	fillPattern(c.want[:n], o.w)
	if !bytes.Equal(c.buf[:n], c.want[:n]) {
		c.fail("content", fmt.Errorf("object %#x (%d bytes) does not hold its pattern", o.p, n))
	}
}

// checkFill reads o whole and requires every byte to be its Memset value.
func (c *client) checkFill(o object) {
	n := int(o.size)
	if o.p == 0 || !c.read(o.p, c.buf[:n]) {
		return
	}
	c.checks++
	v := fillByte(o.w)
	if bytes.Count(c.buf[:n], []byte{v}) != n {
		c.fail("content", fmt.Errorf("object %#x (%d bytes) does not hold its fill %#x", o.p, n, v))
	}
}

// checkFree verifies o, then frees it.
func (c *client) checkFree(o object) {
	if o.p == 0 {
		return
	}
	c.check(o)
	c.free(o.p)
}

// checkFillFree verifies a Memset object whole, then frees it.
func (c *client) checkFillFree(o object) {
	if o.p == 0 {
		return
	}
	c.checkFill(o)
	c.free(o.p)
}
