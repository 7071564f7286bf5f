package experiments

// Cross-PR perf comparison: diff a fresh meshbench -json result against a
// committed baseline file and flag regressions. This is deliberately
// schema-light — results are read as {"rows": [{...}]} with rows keyed by
// whichever identity fields they carry (workers/producers/mode/batch), so
// the same comparator covers the scale, datapath, and chaos experiments
// and any future -json experiment that follows the rows convention.
//
// Two metrics are judged:
//
//   - ops_per_sec: higher is better. A row regresses when the fresh value
//     falls more than Threshold percent below baseline. Wall-clock
//     throughput is machine-dependent, so gates that compare across
//     machines (CI runners vs the machine that committed the baseline)
//     should use a lenient threshold; the point is catching collapses —
//     a lock reintroduced on a lock-free path — not 5% noise.
//   - shard_acquires: lower is better, and nearly machine-independent —
//     it counts lock acquisitions, not time. A row regresses when the
//     fresh count exceeds baseline by more than CounterThreshold percent.
//     Rows where both sides are below counterFloor are ignored: tiny
//     counts (refill setup) jitter by whole multiples without meaning.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// counterFloor is the shard-acquire count below which comparison is
// meaningless: both runs are in "a handful of refills" territory.
const counterFloor = 1000

// CompareOptions bounds how far a fresh result may drift from baseline.
type CompareOptions struct {
	// Threshold is the allowed ops_per_sec drop, in percent (e.g. 20
	// means a row regresses below 80% of baseline throughput).
	Threshold float64
	// CounterThreshold is the allowed shard_acquires growth, in percent.
	CounterThreshold float64
}

// CompareDelta is one (row, metric) comparison.
type CompareDelta struct {
	Row     string  // identity string, e.g. "workers=4 mode=queued"
	Metric  string  // "ops_per_sec" or "shard_acquires"
	Old     float64 // baseline value
	New     float64 // fresh value
	Delta   float64 // percent change, signed (positive = fresh larger)
	Regress bool
}

// CompareReport is the full diff of one fresh file against its baseline.
type CompareReport struct {
	Deltas []CompareDelta
	// Missing lists baseline rows absent from the fresh result — a
	// vanished configuration is treated as a regression (the gate should
	// fail loudly, not silently shrink its coverage).
	Missing []string
}

// Regressions counts failing deltas plus missing rows.
func (r *CompareReport) Regressions() int {
	n := len(r.Missing)
	for _, d := range r.Deltas {
		if d.Regress {
			n++
		}
	}
	return n
}

// benchRows loads a meshbench -json artifact as keyed generic rows. The
// chaos experiments report per-seed runs under "seeds" rather than
// "rows"; the comparator treats the two identically.
func benchRows(path string) (map[string]map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Rows  []map[string]any `json:"rows"`
		Seeds []map[string]any `json:"seeds"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	doc.Rows = append(doc.Rows, doc.Seeds...)
	if len(doc.Rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	out := make(map[string]map[string]any, len(doc.Rows))
	for _, row := range doc.Rows {
		k := rowKey(row)
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("%s: duplicate row %q", path, k)
		}
		out[k] = row
	}
	return out, nil
}

// rowKey builds a stable identity from whichever of the known identity
// fields the row carries, in fixed order.
func rowKey(row map[string]any) string {
	var parts []string
	for _, f := range []string{"seed", "workers", "producers", "mode", "batch"} {
		if v, ok := row[f]; ok {
			parts = append(parts, fmt.Sprintf("%s=%v", f, v))
		}
	}
	if len(parts) == 0 {
		return "row"
	}
	return strings.Join(parts, " ")
}

func rowFloat(row map[string]any, field string) (float64, bool) {
	v, ok := row[field]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64) // encoding/json decodes all numbers as float64
	return f, ok
}

// CompareBenchFiles diffs the fresh meshbench result at freshPath against
// the committed baseline at baselinePath. It never fails on drift — the
// report carries per-row verdicts and the caller decides the exit code.
func CompareBenchFiles(baselinePath, freshPath string, opt CompareOptions) (*CompareReport, error) {
	base, err := benchRows(baselinePath)
	if err != nil {
		return nil, err
	}
	fresh, err := benchRows(freshPath)
	if err != nil {
		return nil, err
	}
	rep := &CompareReport{}
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fr, ok := fresh[k]
		if !ok {
			rep.Missing = append(rep.Missing, k)
			continue
		}
		br := base[k]
		if oldV, ok := rowFloat(br, "ops_per_sec"); ok {
			if newV, ok := rowFloat(fr, "ops_per_sec"); ok && oldV > 0 {
				d := 100 * (newV - oldV) / oldV
				rep.Deltas = append(rep.Deltas, CompareDelta{
					Row: k, Metric: "ops_per_sec", Old: oldV, New: newV,
					Delta: d, Regress: d < -opt.Threshold,
				})
			}
		}
		if oldV, ok := rowFloat(br, "shard_acquires"); ok {
			if newV, ok := rowFloat(fr, "shard_acquires"); ok {
				if oldV < counterFloor && newV < counterFloor {
					continue
				}
				d := 100.0
				if oldV > 0 {
					d = 100 * (newV - oldV) / oldV
				}
				rep.Deltas = append(rep.Deltas, CompareDelta{
					Row: k, Metric: "shard_acquires", Old: oldV, New: newV,
					Delta: d, Regress: d > opt.CounterThreshold,
				})
			}
		}
	}
	return rep, nil
}
