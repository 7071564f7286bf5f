package mesh

// Prometheus-style text export of the whole control surface: every
// readable stats.*/trace.* (and config) key becomes one metric line, so a
// paper-style run — or a scrape endpoint — captures the full counter
// state in one call. The format is the Prometheus text exposition format
// (version 0.0.4): `# HELP` and `# TYPE` headers, snake_case names
// prefixed mesh_, histograms expanded to cumulative _bucket/_sum/_count
// series, and durations converted to seconds. New control keys appear
// here automatically: the exporter walks the controls table, takes each
// entry's help text, and renders by dynamic type, skipping only
// write-only and noExport keys.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"
)

// WriteMetrics writes every readable control key as Prometheus-style
// text metrics, each headed by its key's help text. Gauges and counters
// render as single lines; the stats.mesh.pauses histogram renders as
// cumulative le-buckets plus _sum and _count; duration-valued keys get a
// _seconds suffix. Keys are emitted in sorted order, so output is
// diffable across runs.
func (a *Allocator) WriteMetrics(w io.Writer) error {
	for _, key := range ControlKeys() {
		c := controlIndex[key]
		// Write-only keys (actions like mesh.compact) have no value, and
		// noExport keys (string-valued, or reads with side effects like
		// debug.check_invariants) have no numeric rendering.
		if c.get == nil || c.noExport {
			continue
		}
		if err := writeMetric(w, metricName(key), c.help, c.get(a)); err != nil {
			return err
		}
	}
	return nil
}

// MetricsHandler returns an http.Handler serving WriteMetrics — mount it
// on /metrics to scrape the allocator like any other Prometheus target.
func (a *Allocator) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := a.WriteMetrics(w); err != nil {
			// Headers are already out; a partial scrape with an error
			// comment is the best we can do mid-stream.
			fmt.Fprintf(w, "# error: %v\n", err)
		}
	})
}

// metricName mangles a control key into a metric identifier:
// stats.mesh.pauses -> mesh_stats_mesh_pauses.
func metricName(key string) string {
	return "mesh_" + strings.NewReplacer(".", "_", "-", "_").Replace(key)
}

func writeMetric(w io.Writer, name, help string, v any) error {
	switch x := v.(type) {
	case bool:
		n := 0
		if x {
			n = 1
		}
		return writeScalar(w, name, help, "%d", n)
	case int:
		return writeScalar(w, name, help, "%d", x)
	case int64:
		return writeScalar(w, name, help, "%d", x)
	case uint64:
		return writeScalar(w, name, help, "%d", x)
	case time.Duration:
		return writeScalar(w, name+"_seconds", help, "%g", x.Seconds())
	case PauseHistogram:
		return writePauseHistogram(w, name+"_seconds", help, x)
	default:
		// Future key types surface loudly rather than silently vanishing
		// from dashboards.
		return fmt.Errorf("mesh: control value type %T has no metric rendering", v)
	}
}

// writeHeader writes a series' # HELP and # TYPE lines.
func writeHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

func writeScalar(w io.Writer, name, help, format string, v any) error {
	if err := writeHeader(w, name, help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s "+format+"\n", name, v)
	return err
}

// writePauseHistogram renders the fixed-bucket pause histogram in
// Prometheus histogram convention: cumulative bucket counts keyed by
// inclusive upper bound in seconds, an +Inf bucket equal to _count, and
// the observed sum.
func writePauseHistogram(w io.Writer, name, help string, h PauseHistogram) error {
	if err := writeHeader(w, name, help, "histogram"); err != nil {
		return err
	}
	cum := uint64(0)
	for i := 0; i < NumPauseBuckets; i++ {
		cum += h.Buckets[i]
		le := "+Inf"
		if bound := PauseBucketBound(i); bound >= 0 {
			le = formatSeconds(bound.Seconds())
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, h.Total.Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	return err
}

// formatSeconds renders a bucket bound without exponent noise for the
// common sub-second bounds (0.001, not 1e-03).
func formatSeconds(s float64) string {
	if s == math.Trunc(s) {
		return fmt.Sprintf("%d", int64(s))
	}
	out := fmt.Sprintf("%.9f", s)
	out = strings.TrimRight(out, "0")
	return strings.TrimRight(out, ".")
}
