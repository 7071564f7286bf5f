// Command meshbench regenerates every table and figure of the Mesh paper's
// evaluation (§6) plus the analytical validations (§2.2, §5).
//
// Usage:
//
//	meshbench [-scale N] [-csv] <experiment>
//
// Experiments:
//
//	fig6      Firefox/Speedometer RSS over time (Mesh vs jemalloc)
//	fig7      Redis RSS over time (jemalloc+activedefrag, Mesh, Mesh no-mesh)
//	fig8      Ruby microbenchmark RSS over time (4 configurations)
//	spec      SPECint-like suite peak RSS and runtime (Mesh vs glibc)
//	prob      mesh-probability validation (§2.2, §5.2)
//	lemma53   SplitMesher guarantee and t sweep (§5.3)
//	triangle  triangle scarcity in meshing graphs (§5.2)
//	ablation  §6.3 randomization ablation table
//	robson    §1 motivation: OOM survival under a memory budget
//	pause     inline vs daemon meshing (one engine, two pause budgets): tail stalls and RSS (§4.5)
//	chaos     fault-injection stress: every site armed across 4 seeds, exact accounting and typed faults demanded
//	chaos-hardened  corruption-injection stress: canary/poison sites armed, violations == injections demanded
//	all       everything above
//
// -scale divides workload sizes (1 = the paper's full parameters; larger
// values run proportionally smaller and faster). -csv additionally dumps
// the RSS time series for the figure experiments.
//
// Throughput and per-layer costs are measured by the end-to-end benchmark
// (benchmark/, run with `bash benchmark/run.sh`), not here; CI holds its
// redis-lru counters to bench/counters.json with cmd/countergate.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/stats"
)

var (
	scale  = flag.Int("scale", 1, "divide workload sizes by this factor (1 = paper scale)")
	csvOut = flag.Bool("csv", false, "also print RSS time series as CSV")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: meshbench [-scale N] [-csv] <fig6|fig7|fig8|spec|prob|lemma53|triangle|ablation|robson|pause|chaos|chaos-hardened|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintf(os.Stderr, "meshbench: %v\n", err)
		os.Exit(1)
	}
}

func run(what string) error {
	switch what {
	case "fig6":
		return fig6()
	case "fig7":
		return fig7()
	case "fig8":
		return fig8()
	case "spec":
		return spec()
	case "prob":
		prob()
		return nil
	case "lemma53":
		lemma53()
		return nil
	case "triangle":
		triangle()
		return nil
	case "ablation":
		return ablation()
	case "robson":
		return robson()
	case "pause":
		return pause()
	case "chaos":
		return chaos()
	case "chaos-hardened":
		return chaosHardened()
	case "all":
		for _, f := range []func() error{fig6, fig7, fig8, spec, ablation, robson, pause, chaos, chaosHardened} {
			if err := f(); err != nil {
				return err
			}
		}
		prob()
		lemma53()
		triangle()
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", what)
	}
}

func header(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

func fig6() error {
	header("Figure 6: Firefox/Speedometer — RSS over benchmark run")
	res, err := experiments.Fig6(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %12s %12s %14s %12s\n", "allocator", "mean RSS MiB", "peak RSS MiB", "wall time", "ops/sec")
	for _, r := range res.Rows {
		fmt.Printf("%-22s %12.2f %12.2f %14v %12.0f\n",
			r.Allocator, r.MeanRSS/(1<<20), stats.MiB(r.PeakRSS), r.WallTime.Round(1e6), r.OpsPerSec)
	}
	fmt.Printf("mesh mean-RSS change vs baseline: %+.1f%%  (paper: -16%%)\n", res.DeltaPercent)
	if *csvOut {
		for _, r := range res.Rows {
			if err := r.Series.WriteCSV(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

func fig7() error {
	header("Figure 7: Redis — RSS over run, and §6.2.2 compaction timing")
	res, err := experiments.Fig7(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-26s %12s %12s %12s %12s %12s\n",
		"configuration", "final MiB", "peak MiB", "insert", "defrag", "meshing")
	for _, r := range res.Rows {
		fmt.Printf("%-26s %12.2f %12.2f %12v %12v %12v\n",
			r.Allocator, stats.MiB(r.FinalRSS), stats.MiB(r.PeakRSS),
			r.InsertTime.Round(1e6), r.DefragTime.Round(1e6), r.MeshTime.Round(1e6))
	}
	fmt.Printf("mesh savings vs no-meshing: %.1f%%  (paper: 39%%)\n", res.SavingsPercent)
	if *csvOut {
		for _, r := range res.Rows {
			if err := r.Series.WriteCSV(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

func fig8() error {
	header("Figure 8: Ruby microbenchmark — RSS over run, 4 configurations")
	res, err := experiments.Fig8(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %12s %12s %14s\n", "configuration", "mean RSS MiB", "peak RSS MiB", "wall time")
	for _, r := range res.Rows {
		fmt.Printf("%-22s %12.2f %12.2f %14v\n",
			r.Allocator, r.MeanRSS/(1<<20), stats.MiB(r.PeakRSS), r.WallTime.Round(1e6))
	}
	fmt.Printf("randomization savings (mesh vs no-rand): %.1f%%  (paper: ~16 points, 19%% vs 3%%)\n",
		res.RandSavingsPercent)
	if *csvOut {
		for _, r := range res.Rows {
			if err := r.Series.WriteCSV(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

func spec() error {
	header("§6.2.3: SPECint-like suite — peak RSS and runtime, Mesh vs glibc")
	res, err := experiments.Spec(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %12s %12s %9s %12s %12s\n",
		"benchmark", "mesh MiB", "glibc MiB", "mem Δ%", "mesh time", "glibc time")
	for _, r := range res.Rows {
		fmt.Printf("%-16s %12.2f %12.2f %+8.1f%% %12v %12v\n",
			r.Benchmark, stats.MiB(r.MeshPeak), stats.MiB(r.GlibcPeak),
			r.MemDeltaPc, r.MeshTime.Round(1e6), r.GlibcTime.Round(1e6))
	}
	fmt.Printf("geomean mem ratio mesh/glibc: %.3f  (paper: 0.976, i.e. -2.4%%)\n", res.GeomeanMemRatio)
	return nil
}

func prob() {
	header("§2.2/§5.2: mesh probability — theory vs Monte Carlo")
	res := experiments.Prob(20000)
	fmt.Printf("%8s %8s %12s %12s\n", "slots b", "live r", "theory q", "empirical q")
	for _, r := range res.Rows {
		fmt.Printf("%8d %8d %12.5f %12.5f\n", r.SpanObjects, r.LiveObjects, r.TheoryQ, r.EmpiricalQ)
	}
	fmt.Printf("worst case (§2.2, b=256, n=64): log10 P(unmeshable) = %.1f  (paper: ≈ -152)\n",
		res.UnmeshableLog10)
}

func lemma53() {
	header("§5.3 Lemma: SplitMesher matching size vs bound; t sweep")
	res := experiments.Lemma53(400)
	fmt.Printf("%6s %6s %6s %6s %9s %9s %7s %8s %8s\n",
		"n", "b", "r", "t", "q", "bound", "found", "optimal", "probes")
	for _, r := range res.Rows {
		opt := "-"
		if r.Optimal > 0 {
			opt = fmt.Sprintf("%d", r.Optimal)
		}
		fmt.Printf("%6d %6d %6d %6d %9.4f %9.1f %7d %8s %8d\n",
			r.Spans, r.SpanSlots, r.LiveSlots, r.T, r.Q, r.Bound, r.Found, opt, r.Probes)
	}
}

func triangle() {
	header("§5.2: triangle scarcity in meshing graphs (b=32, r=10, n=1000)")
	res := experiments.Triangle()
	fmt.Printf("expected triangles, true dependent model:   %8.2f  (paper: < 2)\n", res.ExpectedDependent)
	fmt.Printf("expected triangles, independent-edge model: %8.1f  (paper: ≈ 167)\n", res.ExpectedIndependent)
	fmt.Printf("empirical triangles in one sampled graph:   %8d\n", res.EmpiricalTriangles)
	fmt.Printf("empirical edges: %d; SplitMesher(t=64) pairs found: %d\n",
		res.EmpiricalEdges, res.EmpiricalMeshedPairs)
	fmt.Printf("matching vs optimal clique cover (30 exact instances): releases %d vs %d\n",
		res.MatchingReleases, res.CoverReleases)
}

func robson() error {
	header("§1 motivation: fragmentation-induced OOM under a memory budget (Robson)")
	budgetPages := int64(32 << 20 / 4096 / *scale) // 32 MiB at scale 1
	if budgetPages < 256 {
		budgetPages = 256
	}
	res, err := experiments.Robson(budgetPages, 24, []string{"mesh", "mesh-nomesh", "jemalloc", "glibc"})
	if err != nil {
		return err
	}
	fmt.Printf("budget %.1f MiB, live-data target %.1f MiB, up to %d rounds of the size-cycling adversary\n",
		stats.MiB(res.BudgetBytes), stats.MiB(res.LiveTarget), res.Rounds)
	fmt.Printf("%-20s %10s %6s %12s %12s\n", "allocator", "rounds", "OOM", "max live MiB", "final MiB")
	for _, r := range res.Rows {
		fmt.Printf("%-20s %10d %6v %12.2f %12.2f\n",
			r.Allocator, r.RoundsCompleted, r.OOM, stats.MiB(r.MaxLive), stats.MiB(r.FinalRSS))
	}
	return nil
}

func ablation() error {
	header("§6.3 ablation: meshing × randomization on the Ruby workload")
	res, err := experiments.Ablation(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %12s %14s\n", "configuration", "mean RSS MiB", "wall time")
	for _, r := range res.Rows {
		fmt.Printf("%-22s %12.2f %14v\n", r.Allocator, r.MeanRSS/(1<<20), r.WallTime.Round(1e6))
	}
	return nil
}

func pause() error {
	header("Pause: inline (unbounded budget) vs daemon (mesh.max_pause budget) meshing under concurrent traffic (§4.5)")
	res, err := experiments.Pause(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %9s %12s %12s %8s %8s %12s %8s %10s %10s\n",
		"mode", "ops", "max stall", "worst pause", "pauses", "passes", "meshed", "peak MiB", "mean MiB", "ops/sec")
	for _, r := range res.Rows {
		fmt.Printf("%-12s %9d %12v %12v %8d %8d %12d %8.2f %10.2f %10.0f\n",
			r.Config, r.Ops, r.MaxStall, r.LongestPause, r.PauseCount, r.Passes,
			r.SpansMeshed, stats.MiB(r.PeakRSS), r.MeanRSS/(1<<20), r.OpsPerSec)
	}
	if len(res.Rows) == 2 {
		fg, bg := res.Rows[0], res.Rows[1]
		if fg.MaxStall > 0 {
			fmt.Printf("background max stall vs foreground: %.2fx; worst engine pause: %.2fx\n",
				float64(bg.MaxStall)/float64(fg.MaxStall),
				float64(bg.LongestPause)/float64(fg.LongestPause))
		}
		if fg.MeanRSS > 0 {
			fmt.Printf("background mean-RSS vs foreground: %+.1f%%  (acceptance bound: within 10%%)\n",
				100*(bg.MeanRSS-fg.MeanRSS)/fg.MeanRSS)
		}
	}
	if *csvOut {
		for _, r := range res.Rows {
			if err := r.Series.WriteCSV(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

func chaos() error {
	header("Chaos: every fault site armed, 4 seeds, exact accounting demanded")
	res, err := experiments.Chaos(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("plan: %s\n", res.Plan)
	fmt.Printf("%6s %10s %9s %12s %14s %8s %9s %10s %11s\n",
		"seed", "ops", "skipped", "wall", "ops/sec", "faults", "passes", "restarts", "invariants")
	for _, r := range res.Seeds {
		inv := "ok"
		if !r.InvariantsOK {
			inv = "VIOLATED"
		}
		fmt.Printf("%6d %10d %9d %12v %14.0f %8d %9d %10d %11s\n",
			r.Seed, r.Ops, r.SkippedOps, r.Wall.Round(1e6), r.OpsPerSec,
			r.FaultsInjected, r.MeshPasses, r.MeshdRestarts, inv)
		if !r.InvariantsOK {
			return fmt.Errorf("chaos seed %d: invariant check failed", r.Seed)
		}
		if r.SkippedOps == 0 {
			return fmt.Errorf("chaos seed %d: no typed fault reached the workload", r.Seed)
		}
	}
	return nil
}

func chaosHardened() error {
	header("Chaos (hardened): canary/poison corruption injected, containment demanded")
	res, err := experiments.ChaosHardened(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("plan: %s\n", res.Plan)
	fmt.Printf("%6s %10s %12s %9s %11s %8s %8s %8s %12s %7s %11s\n",
		"seed", "ops", "checks", "injected", "violations", "retired", "lost", "audited", "quarantined", "served", "invariants")
	for _, r := range res.Seeds {
		inv := "ok"
		if !r.InvariantsOK {
			inv = "VIOLATED"
		}
		fmt.Printf("%6d %10d %12d %9d %11d %8d %8d %8d %12d %7v %11s\n",
			r.Seed, r.Ops, r.Checks, r.FaultsInjected, r.Violations,
			r.RetiredSpans, r.LostObjects, r.Audited, r.Quarantined, r.ServedAfter, inv)
		if !r.InvariantsOK {
			return fmt.Errorf("hardened chaos seed %d: invariant check failed", r.Seed)
		}
	}
	return nil
}
