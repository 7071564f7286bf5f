// Package faultinject is the allocator's deterministic fault-injection
// plane. Every failure-capable layer — the simulated VM, the mesh
// engine's protect→copy→remap protocol, the remote-free segment
// allocator, the meshd daemon — asks this package "should this
// operation fail right now?" at a named Site. Decisions are pure
// functions of (seed, site, per-site evaluation counter), so a fault
// schedule replays exactly from a seed: the same workload with the same
// plan hits the same operations in the same order, which is what makes
// chaos failures debuggable instead of anecdotal.
//
// The plane follows the trace package's disabled-cost discipline: a
// site check on the disarmed path is one atomic load and a branch,
// annotated //mesh:lockfree and enforced by meshvet. The plane takes no
// locks and allocates nothing on any path the allocator's fast paths
// can reach; injected-fault bookkeeping is all atomics.
//
// # Plan grammar
//
// A plan is a comma-separated list of site clauses:
//
//	site[:key=value]...
//
// e.g. "vm.commit:rate=8:mode=transient,mesh.copy:count=1". Keys:
//
//	rate=N   fail 1 in N evaluations, deterministically (default 1:
//	         every evaluation fails)
//	count=N  budget: at most N injected failures, then the site
//	         disarms (default unlimited)
//	after=N  skip the first N evaluations before arming (default 0)
//	mode=M   "permanent" (default) or "transient"; transient failures
//	         additionally match ErrTransient and are retried by
//	         RetryTransient wrappers at the call sites
//
// Unknown sites or keys are rejected — a typo'd plan is an error, not a
// silent no-op.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Site names one injection point. The string forms below are the
// identifiers used in plan specs and reported in trace events.
type Site uint8

const (
	// SiteVMCommit: committing fresh physical pages (the simulated
	// mmap/ENOMEM). Permanent failures wrap vm.ErrOutOfMemory.
	SiteVMCommit Site = iota
	// SiteVMMap: mapping an existing physical span at a new virtual
	// address (dirty-span reuse). Permanent failures wrap
	// vm.ErrOutOfMemory.
	SiteVMMap
	// SiteVMProtect: write-protecting pages for a mesh pass. Only
	// protect-to-read-only evaluates the site; restoring read-write is
	// the abort path's recovery step and must be infallible.
	SiteVMProtect
	// SiteMeshProtect: abandon the size class being meshed after the
	// protect phase, before any copying.
	SiteMeshProtect
	// SiteMeshCopy: abandon the size class being meshed mid-copy,
	// discarding the partial copy.
	SiteMeshCopy
	// SiteMeshRemap: abandon the size class being meshed after copying,
	// before the remap fix-up.
	SiteMeshRemap
	// SiteRemoteSegment: fail a remote-free segment allocation, forcing
	// the push onto the shard-locked fallback.
	SiteRemoteSegment
	// SiteMeshdStall: delay the daemon inside a pass (models a
	// descheduled or wedged background thread).
	SiteMeshdStall
	// SiteMeshdPanic: panic the daemon goroutine inside a pass,
	// exercising the supervisor's recover-and-restart path.
	SiteMeshdPanic
	// SiteHardenCanary: flip a byte of an object's trailing canary just
	// before the hardening layer verifies it, modeling a linear heap
	// overflow. The verification that evaluates the site then runs for
	// real, so every injection is a detected violation.
	SiteHardenCanary
	// SiteHardenPoison: flip a byte of a freed slot's poison fill just
	// before reuse verification, modeling a use-after-free write.
	SiteHardenPoison

	numSites
)

// NumSites is the number of injection sites, for iteration in tests.
const NumSites = int(numSites)

var siteNames = [numSites]string{
	SiteVMCommit:      "vm.commit",
	SiteVMMap:         "vm.map",
	SiteVMProtect:     "vm.protect",
	SiteMeshProtect:   "mesh.protect",
	SiteMeshCopy:      "mesh.copy",
	SiteMeshRemap:     "mesh.remap",
	SiteRemoteSegment: "remote.segment",
	SiteMeshdStall:    "meshd.stall",
	SiteMeshdPanic:    "meshd.panic",
	SiteHardenCanary:  "harden.canary",
	SiteHardenPoison:  "harden.poison",
}

// String returns the site's plan-spec name.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return "unknown"
}

// ParseSite resolves a plan-spec site name.
func ParseSite(name string) (Site, error) {
	for i, n := range siteNames {
		if n == name {
			return Site(i), nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown site %q", name)
}

// Sites returns every site in declaration order.
func Sites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// Sentinel errors. Every injected failure matches ErrInjected via
// errors.Is; transient ones additionally match ErrTransient.
var (
	ErrInjected  = errors.New("faultinject: injected fault")
	ErrTransient = errors.New("faultinject: transient fault")
)

// InjectedError is the concrete error returned for an injected failure.
type InjectedError struct {
	Site      Site
	Transient bool
	N         uint64 // which evaluation at this site failed (1-based)
}

func (e *InjectedError) Error() string {
	mode := "permanent"
	if e.Transient {
		mode = "transient"
	}
	return fmt.Sprintf("faultinject: %s fault injected at %s (eval %d)", mode, e.Site, e.N)
}

// Is matches the package sentinels so call sites can use errors.Is
// without reaching for the concrete type.
func (e *InjectedError) Is(target error) bool {
	if target == ErrInjected {
		return true
	}
	return e.Transient && target == ErrTransient
}

// siteState is one site's armed schedule. All fields are atomics: plan
// swaps race freely with evaluations on lock-free paths.
type siteState struct {
	armed     atomic.Bool
	transient atomic.Bool
	rate      atomic.Uint64 // fail 1 in rate evaluations
	budget    atomic.Int64  // remaining injections; -1 = unlimited
	after     atomic.Uint64 // evaluations to skip before arming
	evals     atomic.Uint64 // total evaluations (armed or not)
	hits      atomic.Uint64 // injected failures at this site
}

// Plane is one allocator's fault-injection state: a master switch, a
// seed fixed at construction, and a per-site schedule. The zero Plane is
// unusable; call NewPlane.
type Plane struct {
	enabled  atomic.Bool
	seed     uint64
	injected atomic.Uint64 // total injected failures across sites
	sites    [numSites]siteState
	tr       atomic.Pointer[trace.Source]

	// planMu serializes SetPlan against itself only — evaluations never
	// touch it. Leaf: nothing is acquired under it.
	planMu sync.Mutex
	plan   atomic.Pointer[string]
}

// NewPlane returns a disabled plane with the given decision seed.
func NewPlane(seed uint64) *Plane {
	p := &Plane{seed: seed}
	empty := ""
	p.plan.Store(&empty)
	for i := range p.sites {
		p.sites[i].rate.Store(1)
		p.sites[i].budget.Store(-1)
	}
	return p
}

// SetTracer attaches a trace source; every injected fault emits
// EvFaultInjected on it.
func (p *Plane) SetTracer(src *trace.Source) {
	p.tr.Store(src)
}

// SetEnabled flips the master switch. A disabled plane never injects,
// regardless of the plan.
func (p *Plane) SetEnabled(on bool) { p.enabled.Store(on) }

// Enabled reports the master switch.
func (p *Plane) Enabled() bool { return p.enabled.Load() }

// Injected returns the total number of faults injected across all
// sites.
func (p *Plane) Injected() uint64 { return p.injected.Load() }

// SiteHits returns the number of faults injected at one site.
func (p *Plane) SiteHits(s Site) uint64 { return p.sites[s].hits.Load() }

// SiteEvals returns the number of times one site was evaluated.
func (p *Plane) SiteEvals(s Site) uint64 { return p.sites[s].evals.Load() }

// Plan returns the spec string most recently applied by SetPlan.
func (p *Plane) Plan() string { return *p.plan.Load() }

// clause is one parsed site schedule.
type clause struct {
	site      Site
	rate      uint64
	count     int64
	after     uint64
	transient bool
}

// parsePlan validates a spec without touching any plane state.
func parsePlan(spec string) ([]clause, error) {
	var out []clause
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, raw := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(raw), ":")
		if fields[0] == "" {
			return nil, fmt.Errorf("faultinject: empty site in clause %q", raw)
		}
		site, err := ParseSite(fields[0])
		if err != nil {
			return nil, err
		}
		c := clause{site: site, rate: 1, count: -1}
		for _, kv := range fields[1:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: malformed option %q in clause %q", kv, raw)
			}
			switch key {
			case "rate", "count", "after":
				n, err := strconv.ParseUint(val, 10, 63)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad %s value %q: %v", key, val, err)
				}
				switch key {
				case "rate":
					if n == 0 {
						return nil, fmt.Errorf("faultinject: rate must be >= 1 in clause %q", raw)
					}
					c.rate = n
				case "count":
					c.count = int64(n)
				case "after":
					c.after = n
				}
			case "mode":
				switch val {
				case "transient":
					c.transient = true
				case "permanent":
					c.transient = false
				default:
					return nil, fmt.Errorf("faultinject: mode must be transient or permanent, got %q", val)
				}
			default:
				return nil, fmt.Errorf("faultinject: unknown option %q in clause %q", key, raw)
			}
		}
		out = append(out, c)
	}
	return out, nil
}

// ValidatePlan reports whether spec parses, without applying it.
func ValidatePlan(spec string) error {
	_, err := parsePlan(spec)
	return err
}

// SetPlan parses and applies a plan spec, replacing any previous plan.
// Sites not named in the spec are disarmed; evaluation and hit counters
// are preserved (they describe history, not the schedule). An empty
// spec disarms every site. Invalid specs leave the plane unchanged.
func (p *Plane) SetPlan(spec string) error {
	clauses, err := parsePlan(spec)
	if err != nil {
		return err
	}
	p.planMu.Lock()
	defer p.planMu.Unlock()
	for i := range p.sites {
		p.sites[i].armed.Store(false)
	}
	for _, c := range clauses {
		s := &p.sites[c.site]
		s.rate.Store(c.rate)
		s.budget.Store(c.count)
		s.after.Store(c.after)
		s.transient.Store(c.transient)
		s.armed.Store(true)
	}
	sp := spec
	p.plan.Store(&sp)
	return nil
}

// splitmix64 is the standard SplitMix64 output function — a bijective
// avalanche over the combined (seed, site, evaluation) state, so
// consecutive evaluations at one site decorrelate even at small rates.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Should reports whether the operation at site s should fail now, and
// charges the site's budget if so. The disarmed path is one atomic load
// and a branch.
//
//mesh:lockfree
func (p *Plane) Should(s Site) bool {
	if p == nil || !p.enabled.Load() {
		return false
	}
	return p.eval(s) //mesh:slowpath — plane armed: chaos runs are off the production fast path by definition
}

// Fail returns nil, or the injected error for site s. Same decision
// procedure as Should; the error carries the site and transience.
//
//mesh:lockfree
func (p *Plane) Fail(s Site) error {
	if p == nil || !p.enabled.Load() {
		return nil
	}
	return p.failSlow(s) //mesh:slowpath — plane armed: chaos runs are off the production fast path by definition
}

func (p *Plane) failSlow(s Site) error {
	if !p.eval(s) {
		return nil
	}
	return &InjectedError{
		Site:      s,
		Transient: p.sites[s].transient.Load(),
		N:         p.sites[s].evals.Load(),
	}
}

// eval runs the decision procedure for one evaluation at site s.
func (p *Plane) eval(s Site) bool {
	st := &p.sites[s]
	n := st.evals.Add(1)
	if !st.armed.Load() || n <= st.after.Load() {
		return false
	}
	rate := st.rate.Load()
	if rate > 1 {
		h := splitmix64(p.seed ^ (uint64(s)+1)*0x9e3779b97f4a7c15 ^ n)
		if h%rate != 0 {
			return false
		}
	}
	// Charge the budget last, so rate-skipped evaluations never consume
	// it. CAS loop: concurrent evaluations must not over-spend.
	for {
		b := st.budget.Load()
		if b == 0 {
			return false
		}
		if b < 0 {
			break // unlimited
		}
		if st.budget.CompareAndSwap(b, b-1) {
			break
		}
	}
	st.hits.Add(1)
	p.injected.Add(1)
	if tr := p.tr.Load(); tr != nil {
		tr.Event(trace.EvFaultInjected, uint64(s), n)
	}
	return true
}

// Retry policy for transient faults: bounded attempts with doubling
// backoff, starting tiny — transient VM faults model momentary kernel
// refusals, not sustained pressure.
const (
	// DefaultRetryAttempts is the total number of tries (first attempt
	// included) RetryTransient makes before giving up.
	DefaultRetryAttempts = 4
	// DefaultRetryBackoff is the sleep before the first retry; it
	// doubles after each failure.
	DefaultRetryBackoff = 50 * time.Microsecond
)

// RetryTransient runs f, retrying with doubling backoff while it fails
// with an error matching ErrTransient, up to attempts tries in total.
// Non-transient errors (and transient errors once attempts are
// exhausted) are returned as-is.
func RetryTransient(attempts int, backoff time.Duration, f func() error) error {
	var err error
	for try := 0; try < attempts; try++ {
		if err = f(); err == nil || !errors.Is(err, ErrTransient) {
			return err
		}
		if try < attempts-1 {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	return err
}
