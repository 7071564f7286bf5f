package experiments

import (
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
	"repro/mesh"
)

// PauseRow is one meshing mode's result in the pause experiment.
type PauseRow struct {
	Config       string
	Ops          int
	Wall         time.Duration
	OpsPerSec    float64
	MaxStall     time.Duration // worst single malloc/free observed
	Passes       uint64
	SpansMeshed  uint64
	LongestPause time.Duration // longest shard-lock hold by the engine
	PauseCount   uint64
	PeakRSS      int64
	MeanRSS      float64
	Series       *stats.Series
}

// PauseResult reports the inline ("foreground") vs daemon ("background")
// comparison.
type PauseResult struct {
	Rows []PauseRow
}

// Pause measures what moving meshing off the free path buys (§4.5): the
// same concurrent malloc/free workload runs twice on a shared Mesh
// allocator, once per caller of the one meshing engine — inline
// ("foreground"), where a free that triggers a pass runs it on the freeing
// goroutine with an unbounded pause budget, and the background daemon,
// whose passes bound every shard-lock hold by mesh.max_pause. Reported per
// mode: worst-case single-operation latency (the tail stall), the engine's
// pause statistics, and the RSS trajectory sampled during the run.
// Wall-clock numbers are machine-dependent; the accounting invariants are
// checked exactly.
func Pause(scale int) (*PauseResult, error) {
	if scale < 1 {
		scale = 1
	}
	ops := 150_000 / scale
	if ops < 2000 {
		ops = 2000
	}
	cfg := workload.ConcurrentConfig{
		Workers: 8,
		Ops:     ops,
		MaxLive: 4096,
		Sizes:   workload.Choice{Sizes: []int{16, 32, 64, 256}, Weights: []float64{5, 3, 2, 1}},
		Seed:    1,
	}

	res := &PauseResult{}
	for _, mode := range []struct {
		name string
		opts []mesh.Option
	}{
		{"foreground", []mesh.Option{
			mesh.WithSeed(1),
			mesh.WithMeshPeriod(2 * time.Millisecond),
			mesh.WithMinMeshSavings(4096),
		}},
		{"background", []mesh.Option{
			mesh.WithSeed(1),
			mesh.WithMeshPeriod(2 * time.Millisecond),
			mesh.WithMinMeshSavings(4096),
			mesh.WithBackgroundMeshing(true),
			mesh.WithMaxMeshPause(200 * time.Microsecond),
		}},
	} {
		ad := mesh.NewAdapter("mesh-"+mode.name, mode.opts...)

		// Sample the RSS trajectory on a side goroutine while the workload
		// runs, like mstat polling a cgroup (§6.1).
		series := &stats.Series{Name: "mesh-" + mode.name}
		stopSampler := make(chan struct{})
		samplerDone := make(chan struct{})
		start := time.Now()
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					series.Record(time.Since(start), ad.RSS(), ad.Live())
				}
			}
		}()

		// Flusher: periodically relinquish idle pooled heaps so detached,
		// partially full spans keep reaching the global heap — without
		// this the pooled workers hold their spans attached for the whole
		// run and neither mode has anything to mesh.
		stopFlusher := make(chan struct{})
		flusherDone := make(chan struct{})
		go func() {
			defer close(flusherDone)
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopFlusher:
					return
				case <-tick.C:
					_ = ad.Allocator.Flush()
				}
			}
		}()

		r, err := workload.RunConcurrent(ad.Allocator, cfg)
		close(stopFlusher)
		<-flusherDone
		close(stopSampler)
		<-samplerDone
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode.name, err)
		}
		series.Record(time.Since(start), ad.RSS(), ad.Live())

		// One explicit quiescent-point pass per mode (with the daemon's
		// budget while it runs) over a fixed fragmented residue, so short
		// smoke-scale runs still exercise and record each mode's pause
		// path: a class visit that claims no pairs records no pause.
		if err := meshResidue(ad.Allocator); err != nil {
			return nil, fmt.Errorf("%s: residue: %w", mode.name, err)
		}

		// Quiesce: stop the daemon, relinquish pooled spans, verify.
		if err := ad.Allocator.Close(); err != nil {
			return nil, fmt.Errorf("%s: close: %w", mode.name, err)
		}
		if err := ad.Allocator.CheckIntegrity(); err != nil {
			return nil, fmt.Errorf("%s: integrity after run: %w", mode.name, err)
		}
		if live := ad.Live(); live != 0 {
			return nil, fmt.Errorf("%s: %d live bytes after full drain", mode.name, live)
		}

		st := ad.Stats()
		res.Rows = append(res.Rows, PauseRow{
			Config:       mode.name,
			Ops:          r.Ops,
			Wall:         r.Wall,
			OpsPerSec:    r.OpsPerSec,
			MaxStall:     r.MaxStall,
			Passes:       st.Mesh.Passes,
			SpansMeshed:  st.Mesh.SpansMeshed,
			LongestPause: st.Mesh.LongestPause,
			PauseCount:   st.Mesh.Pauses.Count,
			PeakRSS:      series.PeakRSS(),
			MeanRSS:      series.MeanRSS(),
			Series:       series,
		})
	}
	return res, nil
}

// meshResidue leaves a fixed fragmented residue — 16 spans of 16-byte
// objects with every 16th object kept — runs Mesh over it, and frees the
// survivors.
func meshResidue(a *mesh.Allocator) error {
	const spans, perSpan, keepEvery = 16, 256, 16
	ptrs := make([]mesh.Ptr, spans*perSpan)
	for i := range ptrs {
		p, err := a.Malloc(16)
		if err != nil {
			return err
		}
		ptrs[i] = p
	}
	var survivors []mesh.Ptr
	for i, p := range ptrs {
		if i%keepEvery == 0 {
			survivors = append(survivors, p)
		} else if err := a.Free(p); err != nil {
			return err
		}
	}
	if err := a.Flush(); err != nil {
		return err
	}
	a.Mesh()
	for _, p := range survivors {
		if err := a.Free(p); err != nil {
			return err
		}
	}
	return nil
}
