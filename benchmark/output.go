package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printTable prints one workload's metrics for the mode: the median over
// repeats, its unit, and the spread of the per-repeat values (interquartile
// range over median).
func printTable(out io.Writer, w *workload, o options, rs []repeatResult, summary map[string]float64) {
	mode := "end to end, untraced"
	if o.traced {
		mode = "per layer, traced"
	}
	fmt.Fprintf(out, "== %s · %s · seed %d · %d repeats\n   %s\n", w.name, mode, o.seed, len(rs), w.loop)
	fmt.Fprintf(out, "   %-34s %14s  %-8s %7s  %s\n", "metric", "median", "unit", "spread", "gate, or what it should move")
	for _, m := range selectMetrics(o.traced) {
		note := m.moves
		switch {
		case m.ungated:
			note = "not gated"
		case m.e2e:
			note = fmt.Sprintf("may worsen %.0f%%", 100*m.bound)
		}
		v, ok := summary[m.name]
		shown := "-"
		if ok {
			shown = fmt.Sprintf("%.4g", v)
		}
		xs := repeatValues(rs, m.name)
		spr := ""
		if len(xs) > 1 {
			spr = fmt.Sprintf("%.1f%%", 100*spread(xs))
		}
		fmt.Fprintf(out, "   %-34s %14s  %-8s %7s  %s\n", m.name, shown, m.unit, spr, note)
	}
	for _, r := range rs {
		for _, e := range r.errs {
			fmt.Fprintln(out, "   FAIL", e)
		}
	}
}

// jsonReport is the -json file: every metric with its per-repeat values.
type jsonReport struct {
	Seed      uint64         `json:"seed"`
	Scale     int            `json:"scale"`
	Traced    bool           `json:"traced"`
	Workloads []jsonWorkload `json:"workloads"`
}

type jsonWorkload struct {
	Name    string       `json:"name"`
	Clients int          `json:"clients"`
	Loop    string       `json:"loop"`
	Repeats int          `json:"repeats"`
	Metrics []jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Layer   string    `json:"layer,omitempty"`
	Moves   string    `json:"moves,omitempty"`
	Flat    string    `json:"flat,omitempty"`
	Help    string    `json:"help"`
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"`
	Repeats []float64 `json:"repeats"`
}

func (r *jsonReport) add(w *workload, rs []repeatResult, summary map[string]float64) {
	jw := jsonWorkload{Name: w.name, Clients: w.clients, Loop: w.loop, Repeats: len(rs)}
	for _, m := range metrics {
		xs := repeatValues(rs, m.name)
		jw.Metrics = append(jw.Metrics, jsonMetric{Name: m.name, Unit: m.unit, Better: m.better,
			Bound: m.bound, Layer: m.layer, Moves: m.moves, Flat: m.flat, Help: m.help,
			Median: summary[m.name], Spread: spread(xs), Repeats: xs})
	}
	r.Workloads = append(r.Workloads, jw)
}

func (r *jsonReport) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// maxSpanLines bounds the spans written per client, which keeps the file
// of a full run to tens of megabytes; the metrics use every span.
const maxSpanLines = 20_000

// writeSpans writes one traced repeat's spans as JSON lines, the first
// maxSpanLines of each client. Requests are numbered per client; spans of
// the quiescent phase have req -1 and no parent.
func writeSpans(out *bufio.Writer, workload string, repeat int, cs []*client) {
	for _, c := range cs {
		for _, s := range c.spans[:min(len(c.spans), maxSpanLines)] {
			req := int64(s.req)
			if s.req == quietReq {
				req = -1
			}
			fmt.Fprintf(out, `{"workload":%q,"repeat":%d,"client":%d,"req":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				workload, repeat, c.id, req, spanNames[s.kind], spanNames[s.parent], s.start, s.end)
		}
	}
}
