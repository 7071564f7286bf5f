// Package experiments drives every table and figure of the paper's
// evaluation (§6) plus the analytical validations of §2 and §5. Each
// function regenerates one artifact and returns a structured result that
// cmd/meshbench renders as text/CSV and the root benchmark suite reports as
// metrics. The cmd/meshbench package doc lists the experiments, each with
// the paper section it reproduces.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/browsersim"
	"repro/internal/core"
	"repro/internal/meshing"
	"repro/internal/redissim"
	"repro/internal/rng"
	"repro/internal/rubysim"
	"repro/internal/specsim"
	"repro/internal/stats"
	"repro/mesh"
)

// Build constructs a named allocator configuration. Recognized kinds:
// "mesh", "mesh-nomesh", "mesh-norand", "jemalloc", "glibc". scale shrinks
// the arena's dirty-page threshold along with the workload (64 MiB at
// scale 1, §4.4.1).
func Build(kind string, scale int, clock *core.LogicalClock) (alloc.Allocator, error) {
	if scale < 1 {
		scale = 1
	}
	thresh := (64 << 20) / scale / 4096
	if thresh < 16 {
		thresh = 16
	}
	base := []mesh.Option{
		mesh.WithSeed(1), mesh.WithClock(clock),
		mesh.WithDirtyPageThreshold(thresh),
	}
	switch kind {
	case "mesh":
		return mesh.NewAdapter("mesh", base...), nil
	case "mesh-nomesh":
		return mesh.NewAdapter("mesh (no meshing)", append(base, mesh.WithMeshing(false))...), nil
	case "mesh-norand":
		return mesh.NewAdapter("mesh (no rand)", append(base, mesh.WithRandomization(false))...), nil
	case "jemalloc":
		return baseline.NewJemalloc(), nil
	case "glibc":
		return baseline.NewGlibc(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown allocator %q", kind)
	}
}

// Kinds lists the allocator configurations Build accepts.
func Kinds() []string {
	return []string{"mesh", "mesh-nomesh", "mesh-norand", "jemalloc", "glibc"}
}

// Fig6Row is one allocator's result on the browser workload.
type Fig6Row struct {
	Allocator string
	MeanRSS   float64
	PeakRSS   int64
	WallTime  time.Duration
	OpsPerSec float64
	Series    stats.Series
}

// Fig6Result reproduces Figure 6 (Firefox/Speedometer RSS over time).
type Fig6Result struct {
	Rows []Fig6Row
	// DeltaPercent is Mesh's mean-RSS change vs the baseline (the paper
	// reports −16%).
	DeltaPercent float64
}

// Fig6 runs the browser workload under Mesh and the jemalloc-like baseline.
func Fig6(scale int) (*Fig6Result, error) {
	cfg := browsersim.Default(scale)
	res := &Fig6Result{}
	for _, kind := range []string{"mesh", "jemalloc"} {
		clock := core.NewLogicalClock()
		a, err := Build(kind, scale*16, clock)
		if err != nil {
			return nil, err
		}
		r, err := browsersim.Run(cfg, a, clock)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig6Row{
			Allocator: a.Name(), MeanRSS: r.MeanRSS, PeakRSS: r.PeakRSS,
			WallTime: r.WallTime, OpsPerSec: r.OpsPerSec, Series: r.Series,
		})
	}
	res.DeltaPercent = stats.PercentChange(res.Rows[1].MeanRSS, res.Rows[0].MeanRSS)
	return res, nil
}

// Fig7Row is one configuration's result on the Redis workload.
type Fig7Row struct {
	Allocator  string
	FinalRSS   int64
	PeakRSS    int64
	MeanRSS    float64
	InsertTime time.Duration
	DefragTime time.Duration
	MeshTime   time.Duration
	Series     stats.Series
}

// Fig7Result reproduces Figure 7 (Redis RSS over time) and the §6.2.2
// timing comparison.
type Fig7Result struct {
	Rows []Fig7Row
	// SavingsPercent is Mesh's final-RSS saving vs Mesh-without-meshing
	// (the paper reports 39%).
	SavingsPercent float64
}

// Fig7 runs the Redis workload under jemalloc+activedefrag, Mesh, and Mesh
// with meshing disabled.
func Fig7(scale int) (*Fig7Result, error) {
	res := &Fig7Result{}
	type cfgRow struct {
		kind   string
		defrag bool
	}
	for _, c := range []cfgRow{
		{kind: "jemalloc", defrag: true},
		{kind: "mesh"},
		{kind: "mesh-nomesh"},
	} {
		cfg := redissim.Default(scale)
		cfg.ActiveDefrag = c.defrag
		clock := core.NewLogicalClock()
		a, err := Build(c.kind, scale, clock)
		if err != nil {
			return nil, err
		}
		name := a.Name()
		if c.defrag {
			name += " + activedefrag"
		}
		r, err := redissim.Run(cfg, a, clock)
		if err != nil {
			return nil, err
		}
		r.Series.Name = name
		res.Rows = append(res.Rows, Fig7Row{
			Allocator: name, FinalRSS: r.FinalRSS, PeakRSS: r.PeakRSS,
			MeanRSS: r.MeanRSS, InsertTime: r.InsertTime,
			DefragTime: r.DefragTime, MeshTime: r.MeshTime, Series: r.Series,
		})
	}
	withMesh, noMesh := res.Rows[1].FinalRSS, res.Rows[2].FinalRSS
	if noMesh > 0 {
		res.SavingsPercent = 100 * (1 - float64(withMesh)/float64(noMesh))
	}
	return res, nil
}

// Fig8Row is one configuration's result on the Ruby microbenchmark.
type Fig8Row struct {
	Allocator string
	MeanRSS   float64
	PeakRSS   int64
	WallTime  time.Duration
	Series    stats.Series
}

// Fig8Result reproduces Figure 8 (Ruby RSS over time, four configurations).
type Fig8Result struct {
	Rows []Fig8Row
	// RandSavingsPercent: mean-RSS reduction of full Mesh vs no-rand (the
	// paper: randomization turns a 3% saving into 19%).
	RandSavingsPercent float64
}

// Fig8 runs the Ruby microbenchmark under jemalloc, Mesh, Mesh (no mesh),
// and Mesh (no rand).
func Fig8(scale int) (*Fig8Result, error) {
	cfg := rubysim.Default(scale)
	res := &Fig8Result{}
	for _, kind := range []string{"jemalloc", "mesh", "mesh-nomesh", "mesh-norand"} {
		clock := core.NewLogicalClock()
		a, err := Build(kind, scale, clock)
		if err != nil {
			return nil, err
		}
		r, err := rubysim.Run(cfg, a, clock)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig8Row{
			Allocator: a.Name(), MeanRSS: r.MeanRSS, PeakRSS: r.PeakRSS,
			WallTime: r.WallTime, Series: r.Series,
		})
	}
	full, noRand := res.Rows[1].MeanRSS, res.Rows[3].MeanRSS
	if noRand > 0 {
		res.RandSavingsPercent = 100 * (1 - full/noRand)
	}
	return res, nil
}

// SpecRow is one benchmark × allocator result.
type SpecRow struct {
	Benchmark  string
	MeshPeak   int64
	GlibcPeak  int64
	MemDeltaPc float64
	MeshTime   time.Duration
	GlibcTime  time.Duration
}

// SpecResult reproduces the §6.2.3 SPECint comparison.
type SpecResult struct {
	Rows []SpecRow
	// GeomeanMemRatio is the suite-wide peak-RSS geomean ratio mesh/glibc
	// (the paper: 0.976, i.e. −2.4%).
	GeomeanMemRatio float64
}

// Spec runs the modeled SPEC suite under Mesh and glibc.
func Spec(scale int) (*SpecResult, error) {
	res := &SpecResult{}
	var ratios []float64
	for _, p := range specsim.Profiles(scale) {
		clockM := core.NewLogicalClock()
		am, err := Build("mesh", scale, clockM)
		if err != nil {
			return nil, err
		}
		rm, err := specsim.Run(p, am, clockM, 33)
		if err != nil {
			return nil, err
		}
		clockG := core.NewLogicalClock()
		ag, err := Build("glibc", scale, clockG)
		if err != nil {
			return nil, err
		}
		rg, err := specsim.Run(p, ag, clockG, 33)
		if err != nil {
			return nil, err
		}
		row := SpecRow{
			Benchmark: p.Name,
			MeshPeak:  rm.PeakRSS, GlibcPeak: rg.PeakRSS,
			MemDeltaPc: stats.PercentChange(float64(rg.PeakRSS), float64(rm.PeakRSS)),
			MeshTime:   rm.WallTime, GlibcTime: rg.WallTime,
		}
		res.Rows = append(res.Rows, row)
		ratios = append(ratios, float64(rm.PeakRSS)/float64(rg.PeakRSS))
	}
	res.GeomeanMemRatio = stats.Geomean(ratios)
	return res, nil
}

// ProbRow validates the §2.2/§5.2 closed-form mesh probability at one
// occupancy.
type ProbRow struct {
	SpanObjects int
	LiveObjects int
	TheoryQ     float64
	EmpiricalQ  float64
}

// ProbResult validates randomized allocation's meshability guarantees.
type ProbResult struct {
	Rows []ProbRow
	// UnmeshableLog10 is the §2.2 worst case: log10 P(no meshable pair)
	// for 64 single-object spans of 256 slots (the paper: ≈ −152).
	UnmeshableLog10 float64
}

// Prob compares theoretical and Monte-Carlo mesh probabilities.
func Prob(trials int) *ProbResult {
	rnd := rng.New(99)
	res := &ProbResult{UnmeshableLog10: meshing.UnmeshableProbabilityLog10(256, 64)}
	for _, occ := range []struct{ b, r int }{
		{256, 8}, {256, 16}, {256, 32}, {64, 8}, {64, 16}, {32, 10},
	} {
		hits := 0
		for i := 0; i < trials; i++ {
			s := meshing.RandomSpans(2, occ.b, occ.r, rnd)
			if meshing.MeshableSpans(s[0], s[1]) {
				hits++
			}
		}
		res.Rows = append(res.Rows, ProbRow{
			SpanObjects: occ.b, LiveObjects: occ.r,
			TheoryQ:    meshing.MeshProbability(occ.b, occ.r, occ.r),
			EmpiricalQ: float64(hits) / float64(trials),
		})
	}
	return res
}

// Lemma53Row is one (occupancy, t) point of the SplitMesher guarantee
// validation.
type Lemma53Row struct {
	Spans      int
	SpanSlots  int
	LiveSlots  int
	T          int
	Q          float64
	Bound      float64 // Lemma 5.3 lower bound
	Found      int     // pairs SplitMesher found
	Optimal    int     // exact maximum matching (small-n subsample ratio)
	Probes     int
	ProbeLimit int
}

// Lemma53Result validates Lemma 5.3 and the t=64 space/time trade-off.
type Lemma53Result struct {
	Rows []Lemma53Row
}

// Lemma53 sweeps occupancy and the probe budget t.
func Lemma53(n int) *Lemma53Result {
	rnd := rng.New(2024)
	res := &Lemma53Result{}
	b := 64
	for _, r := range []int{4, 8, 16} {
		for _, t := range []int{1, 4, 16, 64, 256} {
			spans := meshing.RandomSpans(n, b, r, rnd)
			sm := meshing.SplitMesher(spans, t, meshing.MeshableSpans)
			q := meshing.MeshProbability(b, r, r)
			res.Rows = append(res.Rows, Lemma53Row{
				Spans: n, SpanSlots: b, LiveSlots: r, T: t, Q: q,
				Bound: meshing.SplitMesherLowerBound(n, q, t),
				Found: len(sm.Pairs), Probes: sm.Probes, ProbeLimit: t * n / 2,
			})
		}
	}
	// Quality vs the exact optimum on small instances.
	for _, r := range []int{6, 10} {
		spans := meshing.RandomSpans(16, 32, r, rnd)
		sm := meshing.SplitMesher(spans, 64, meshing.MeshableSpans)
		opt := meshing.OptimalMatching(spans, meshing.MeshableSpans)
		res.Rows = append(res.Rows, Lemma53Row{
			Spans: 16, SpanSlots: 32, LiveSlots: r, T: 64,
			Q:     meshing.MeshProbability(32, r, r),
			Found: len(sm.Pairs), Optimal: opt, Probes: sm.Probes,
		})
	}
	return res
}

// TriangleResult validates §5.2: triangles in meshing graphs are far rarer
// than an independent-edge model predicts, and consequently Matching
// releases almost as many spans as optimal MinCliqueCover.
type TriangleResult struct {
	N, B, R              int
	ExpectedDependent    float64 // true model (paper: < 2)
	ExpectedIndependent  float64 // Erdős–Rényi model (paper: ≈ 167)
	EmpiricalTriangles   int
	EmpiricalEdges       int
	EmpiricalMeshedPairs int
	// Matching-vs-cover comparison on small exactly-solvable instances.
	MatchingReleases int
	CoverReleases    int
}

// Triangle counts triangles on a sampled meshing graph with the paper's
// parameters (b=32, r=10, n=1000).
func Triangle() *TriangleResult {
	rnd := rng.New(55)
	n, b, r := 1000, 32, 10
	spans := meshing.RandomSpans(n, b, r, rnd)
	g := meshing.BuildMeshGraph(spans)
	sm := meshing.SplitMesher(spans, 64, meshing.MeshableSpans)
	res := &TriangleResult{
		N: n, B: b, R: r,
		ExpectedDependent:    meshing.ExpectedTriangles(n, b, r),
		ExpectedIndependent:  meshing.ExpectedTrianglesIndependent(n, b, r),
		EmpiricalTriangles:   g.Triangles(),
		EmpiricalEdges:       g.Edges(),
		EmpiricalMeshedPairs: len(sm.Pairs),
	}
	// Matching vs optimal clique cover on exactly solvable instances: the
	// §5.2 consequence (pairs suffice) quantified.
	for trial := 0; trial < 30; trial++ {
		small := meshing.RandomSpans(14, b, r, rnd)
		cover := meshing.MinCliqueCover(small, meshing.MeshableSpans)
		pairs := meshing.OptimalMatching(small, meshing.MeshableSpans)
		res.CoverReleases += meshing.ReleasedByCover(len(small), cover)
		res.MatchingReleases += meshing.ReleasedByMatching(pairs)
	}
	return res
}

// AblationRow is one configuration of the §6.3 randomization ablation.
type AblationRow struct {
	Allocator string
	MeanRSS   float64
	WallTime  time.Duration
}

// AblationResult reproduces the §6.3 ablation table on the Ruby workload.
type AblationResult struct {
	Rows []AblationRow
}

// Ablation runs the Ruby workload under the four §6.3 configurations.
func Ablation(scale int) (*AblationResult, error) {
	f8, err := Fig8(scale)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}
	for _, r := range f8.Rows {
		res.Rows = append(res.Rows, AblationRow{
			Allocator: r.Allocator, MeanRSS: r.MeanRSS, WallTime: r.WallTime,
		})
	}
	return res, nil
}
