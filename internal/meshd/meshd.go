// Package meshd is the background meshing daemon (§4.5 of the paper:
// "meshing is performed by a dedicated background thread", concurrently
// with the application). It owns all scheduling of compaction work; the
// allocator's free path only nudges it, so no allocating goroutine ever
// runs — or waits for — a whole meshing pass.
//
// The daemon wakes up for three reasons:
//
//   - the period timer: the paper's rate limit (at most one pass per mesh
//     period) evaluated against the heap's injected clock;
//   - free pressure: a free reaching the global heap re-arms the mesh
//     timer and nudges the daemon (instead of meshing inline);
//   - memory pressure: when a resident-memory limit is set (the cgroup
//     model of §1) and RSS crosses pressurePct of it, a pass runs even if
//     the rate limiter says not due — compaction is the OOM escape hatch.
//
// Work is delegated to core.GlobalHeap.MeshBackground: the heap's one
// meshing engine, run with the mesh.max_pause budget. It meshes one size
// class per barrier window, holding only that class's shard lock (traffic
// in every other size class is never stalled at all), copies objects off
// the lock under the §4.5.2 write-protection barrier, and bounds every
// lock hold by the budget.
package meshd

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/trace"
)

// Restart policy for a panicked work loop: capped exponential backoff,
// reset once an incarnation completes a pass (it did useful work, so
// the crash is not a tight loop).
const (
	restartBackoffMin = 5 * time.Millisecond
	restartBackoffMax = time.Second
	// stallSleep is the injected-stall duration (SiteMeshdStall): long
	// enough to widen race windows in chaos runs, short enough that a
	// stalled pass still completes promptly.
	stallSleep = 2 * time.Millisecond
	// pressurePct is the RSS/limit percentage at which memory pressure
	// forces a pass regardless of rate limiting.
	pressurePct = 90
)

// Config parameterizes a Daemon. The zero value is usable: every field
// has a default.
type Config struct {
	// PollInterval is the wall-clock wake-up granularity of the period
	// timer; <= 0 derives it from the heap's mesh period, clamped to
	// [1ms, 1s]. (The rate limit itself is evaluated against the heap's
	// clock, which may be logical; the poll only decides how often the
	// daemon looks.)
	PollInterval time.Duration
}

// Stats counts daemon activity, by trigger.
type Stats struct {
	Wakeups        uint64 // times the daemon woke (timer or nudge)
	TimerPasses    uint64 // passes started by the period timer
	NudgePasses    uint64 // passes started by free-pressure nudges
	PressurePasses uint64 // passes forced by memory pressure
	SpansReleased  uint64 // spans released across all passes
	AuditSlices    uint64 // corruption-auditor slices that walked spans
	Restarts       uint64 // work-loop restarts after a recovered panic
}

// Daemon runs incremental meshing passes on a dedicated goroutine. Create
// with New, then Start/Stop (both idempotent). Safe for concurrent use.
type Daemon struct {
	g   *core.GlobalHeap
	cfg Config

	nudge chan struct{}
	tr    *trace.Source // flight-recorder source for pass-trigger events

	mu      sync.Mutex // guards start/stop transitions
	running atomic.Bool
	stop    chan struct{}
	done    chan struct{}

	wakeups        atomic.Uint64
	timerPasses    atomic.Uint64
	nudgePasses    atomic.Uint64
	pressurePasses atomic.Uint64
	spansReleased  atomic.Uint64
	auditSlices    atomic.Uint64

	// Panic-isolation state: the supervisor counts restarts
	// (stats.meshd.restarts) and uses passesSinceRestart to decide
	// whether the crashed incarnation did useful work (which resets the
	// restart backoff).
	restarts           atomic.Uint64
	passesSinceRestart atomic.Uint64
}

// New returns a stopped daemon bound to g.
func New(g *core.GlobalHeap, cfg Config) *Daemon {
	return &Daemon{
		g:     g,
		cfg:   cfg,
		nudge: make(chan struct{}, 1),
		tr:    g.Tracer().NewSource(trace.SrcDaemon),
	}
}

// Start launches the daemon goroutine, routes the heap's free-path trigger
// to Nudge, and flips the heap into background-meshing mode. Idempotent.
func (d *Daemon) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.running.Load() {
		return
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	d.g.SetMeshNotifier(d.Nudge)
	d.g.SetBackgroundMeshing(true)
	d.running.Store(true)
	go d.supervise(d.stop, d.done)
}

// Stop halts the daemon and restores inline meshing on the free path. It
// blocks until any in-flight pass finishes, so after Stop returns no
// daemon work races the caller. Idempotent.
func (d *Daemon) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.running.Load() {
		return
	}
	close(d.stop)
	<-d.done
	d.running.Store(false)
	d.g.SetBackgroundMeshing(false)
	d.g.SetMeshNotifier(nil)
}

// Running reports whether the daemon goroutine is live.
func (d *Daemon) Running() bool { return d.running.Load() }

// Nudge signals free pressure without blocking: the free path calls it
// while holding the global heap lock, so it must never wait. Redundant
// nudges coalesce in the single-slot channel.
func (d *Daemon) Nudge() {
	select {
	case d.nudge <- struct{}{}:
	default:
	}
}

// RunPass runs one pass with the mesh.max_pause budget synchronously on
// the caller's goroutine, bypassing the rate limiter — deterministic hook
// for tests and experiments. It is safe alongside a running daemon (passes
// serialize on the mesh barrier per size class).
func (d *Daemon) RunPass() int {
	released := d.g.MeshBackground()
	d.spansReleased.Add(uint64(released))
	return released
}

// Stats snapshots daemon activity.
func (d *Daemon) Stats() Stats {
	return Stats{
		Wakeups:        d.wakeups.Load(),
		TimerPasses:    d.timerPasses.Load(),
		NudgePasses:    d.nudgePasses.Load(),
		PressurePasses: d.pressurePasses.Load(),
		SpansReleased:  d.spansReleased.Load(),
		AuditSlices:    d.auditSlices.Load(),
		Restarts:       d.restarts.Load(),
	}
}

// Restarts returns the number of times the supervisor recovered a
// panicked work loop and restarted it (stats.meshd.restarts).
func (d *Daemon) Restarts() uint64 { return d.restarts.Load() }

// supervise is the daemon goroutine's outermost frame: it runs the work
// loop, and if the loop panics — a bug, or an injected meshd.panic
// fault — recovers, counts the restart, waits out a capped exponential
// backoff (interruptible by Stop), and runs the loop again. A panicked
// pass holds no heap locks at the panic sites (the engine releases its
// locks before returning), so the heap stays usable and explicit Mesh
// calls keep working while the daemon is down. Background meshing is
// a performance feature; losing the goroutine forever to one panic
// would silently turn the allocator into its no-daemon configuration.
func (d *Daemon) supervise(stop, done chan struct{}) {
	defer close(done)
	backoff := restartBackoffMin
	for {
		d.passesSinceRestart.Store(0)
		if !d.runLoop(stop) {
			return // clean shutdown via Stop
		}
		if d.passesSinceRestart.Load() > 0 {
			// The crashed incarnation completed passes: not a tight
			// crash loop, start the backoff ladder over.
			backoff = restartBackoffMin
		}
		n := d.restarts.Add(1)
		d.tr.Event(trace.EvMeshdRestart, n, uint64(backoff))
		select {
		case <-stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > restartBackoffMax {
			backoff = restartBackoffMax
		}
	}
}

// runLoop runs the work loop, converting a panic into a crashed=true
// return instead of killing the process. Only panics cross this
// boundary; a stop-channel exit returns false.
func (d *Daemon) runLoop(stop chan struct{}) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			crashed = true
		}
	}()
	d.loop(stop)
	return false
}

func (d *Daemon) loop(stop chan struct{}) {
	timer := time.NewTimer(d.pollEvery())
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-d.nudge:
			d.wakeups.Add(1)
			if d.underPressure() {
				d.pressurePasses.Add(1)
				d.runTraced(trace.WakePressure)
			} else if d.g.MeshDue() {
				d.nudgePasses.Add(1)
				d.runTraced(trace.WakeNudge)
			}
			d.auditSlice()
		case <-timer.C:
			d.wakeups.Add(1)
			if d.underPressure() {
				d.pressurePasses.Add(1)
				d.runTraced(trace.WakePressure)
			} else if d.g.MeshDue() {
				d.timerPasses.Add(1)
				d.runTraced(trace.WakeTimer)
			}
			d.auditSlice()
			timer.Reset(d.pollEvery())
		}
	}
}

// runTraced runs one pass and records what triggered it (idle wakeups are
// deliberately not recorded — the timer polls as often as every
// millisecond, and a no-pass wake carries no information the pass-trigger
// stream doesn't). The daemon's injection sites live here, before the
// pass starts and with no heap locks held: a stall models a descheduled
// background thread, a panic exercises the supervisor.
func (d *Daemon) runTraced(reason uint64) {
	faults := d.g.Faults()
	if faults.Should(faultinject.SiteMeshdStall) {
		time.Sleep(stallSleep)
	}
	if faults.Should(faultinject.SiteMeshdPanic) {
		panic("meshd: injected panic (faultinject meshd.panic)")
	}
	released := d.RunPass()
	d.passesSinceRestart.Add(1)
	d.tr.Event(trace.EvDaemonWake, reason, uint64(released))
}

// auditSlice runs one background corruption-auditor slice: up to
// harden.AuditSpans detached hardened spans get their canaries, poison
// fills, and page-map registrations verified (and corrupt ones retired)
// per daemon wake. AuditSlice itself is a no-op while hardening has never
// been enabled, so the unhardened daemon pays one atomic load per wake.
func (d *Daemon) auditSlice() {
	if audited, _ := d.g.AuditSlice(); audited > 0 {
		d.auditSlices.Add(1)
	}
}

// pollEvery derives the wall-clock wake-up interval, re-read every cycle
// so runtime mesh.period changes take effect.
func (d *Daemon) pollEvery() time.Duration {
	if d.cfg.PollInterval > 0 {
		return d.cfg.PollInterval
	}
	p := d.g.MeshPeriod()
	if p < time.Millisecond {
		p = time.Millisecond
	}
	if p > time.Second {
		p = time.Second
	}
	return p
}

// underPressure reports whether RSS has crossed pressurePct of a
// configured resident-memory limit.
func (d *Daemon) underPressure() bool {
	limit := d.g.OS().MemoryLimit()
	if limit <= 0 {
		return false
	}
	return d.g.OS().RSSPages()*100 >= limit*pressurePct
}
