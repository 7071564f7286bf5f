// oomsurvival: the paper's opening motivation (§1) as a runnable program.
//
// Robson showed that conventional allocators can be driven to memory
// consumption log(max/min object size) times their live data; on
// memory-constrained systems that is the gap between running and being
// OOM-killed ("more than 99 percent of Chrome crashes on low-end Android
// devices are due to running out of memory"). This example runs the same
// size-cycling adversary against Mesh twice — once with meshing on, once
// off — under a hard physical-memory budget, and reports how long each
// survives. It exits 1 unless compaction completes every round and the
// no-meshing run runs out of memory.
//
// Run with: go run ./examples/oomsurvival
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/mesh"
)

const (
	budget     = 8 << 20        // 8 MiB physical budget
	liveTarget = budget * 2 / 5 // live data never exceeds 40% of it
)

// Robson's construction walks strictly increasing size classes, so holes
// left in a retired class are never reusable by later rounds.
var sizes = []int{
	16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256,
	320, 384, 448, 512, 640, 768, 896, 1024, 2048, 4096, 8192, 16384,
}

var maxRounds = len(sizes)

func survive(meshing bool) (rounds int, peakLive int64) {
	a := mesh.New(
		mesh.WithSeed(5),
		mesh.WithClock(mesh.NewLogicalClock()),
		mesh.WithMeshing(meshing),
		mesh.WithDirtyPageThreshold(budget/8/mesh.PageSize),
	)
	if err := a.Control("os.memory_limit", int64(budget)); err != nil {
		log.Fatal(err)
	}

	var survivors []mesh.Ptr
	var liveBytes int64

	for round := 0; round < maxRounds; round++ {
		size := sizes[round]
		var batch []mesh.Ptr
		for liveBytes+int64(len(batch)*size) < liveTarget {
			p, err := a.Malloc(size)
			if err != nil {
				// Out of physical memory: the allocator's heap no longer
				// fits the budget even though live data would.
				return round, peakLive
			}
			batch = append(batch, p)
		}
		if l := liveBytes + int64(len(batch)*size); l > peakLive {
			peakLive = l
		}
		// Keep every 4th object scattered across the spans; free the rest.
		for i, p := range batch {
			if i%4 == 0 {
				survivors = append(survivors, p)
				liveBytes += int64(size)
				continue
			}
			if err := a.Free(p); err != nil {
				log.Fatal(err)
			}
		}
		// Retire half the survivors, chosen uniformly at random, so every
		// class keeps a scattered residue. (Dropping a contiguous slice of
		// the list would empty the newest spans outright and hand the
		// memory back without any compaction.)
		rng := uint64(round)*2654435761 + 7
		for i := len(survivors) - 1; i > 0; i-- {
			rng = rng*6364136223846793005 + 1442695040888963407
			j := int((rng >> 11) % uint64(i+1))
			survivors[i], survivors[j] = survivors[j], survivors[i]
		}
		keep := len(survivors) / 2
		for _, p := range survivors[keep:] {
			if err := a.Free(p); err != nil {
				log.Fatal(err)
			}
		}
		survivors = survivors[:keep]
		liveBytes = a.Stats().Live
		a.Mesh() // quiescent point; a no-op when meshing is disabled
	}
	return maxRounds, peakLive
}

func main() {
	fmt.Printf("physical budget %d MiB, live-data target %d MiB, %d rounds max\n\n",
		budget>>20, liveTarget>>20, maxRounds)
	survived := map[bool]bool{}
	for _, meshing := range []bool{true, false} {
		rounds, peak := survive(meshing)
		survived[meshing] = rounds == maxRounds
		name := "mesh (compacting)"
		if !meshing {
			name = "mesh (no meshing)"
		}
		bar := strings.Repeat("#", rounds)
		status := "completed"
		if rounds < maxRounds {
			status = fmt.Sprintf("OOM in round %d", rounds+1)
		}
		fmt.Printf("%-18s %-36s %s (peak live %.1f MiB)\n",
			name, bar, status, float64(peak)/(1<<20))
	}
	if !survived[true] || survived[false] {
		log.Fatal("the claim does not hold: want compaction to complete and no meshing to run out of memory")
	}
	fmt.Println("\nSame program, same live data, same budget: only compaction keeps it alive.")
}
