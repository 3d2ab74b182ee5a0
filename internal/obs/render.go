package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// baseName strips a label suffix and the histogram-series suffixes so
// an expanded key ("queue_backlog_bytes_bucket{le=...}") resolves to
// its registered Def.
func baseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		key = key[:i]
	}
	for _, suf := range []string{"_bucket", "_count", "_sum"} {
		if b := strings.TrimSuffix(key, suf); b != key {
			if _, ok := defByBase[b]; ok {
				return b
			}
		}
	}
	return key
}

// defByBase resolves a metric base name to its registered Def.
var defByBase = func() map[string]Def {
	m := make(map[string]Def, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}()

// MergeMap folds src into dst at the map level: counters and histogram
// series sum, gauges max — the expanded-key analogue of Merge, for
// aggregating snapshots across runs or jobs.
func MergeMap(dst, src map[string]uint64) {
	for k, v := range src {
		if d, ok := defByBase[baseName(k)]; ok && gauge[d.ID] {
			dst[k] = max(dst[k], v)
			continue
		}
		dst[k] += v
	}
}

// RenderPrometheus writes counters as Prometheus text exposition,
// sorted by key with HELP/TYPE headers emitted once per base metric.
// Keys may carry literal label suffixes ({shard="0"}, {le="4096"});
// unknown keys render as counters without headers.
func RenderPrometheus(w io.Writer, counters map[string]uint64) error {
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seen := make(map[string]bool)
	for _, k := range keys {
		base := baseName(k)
		if d, ok := defByBase[base]; ok && !seen[base] {
			seen[base] = true
			t := "counter"
			switch d.Kind {
			case Gauge:
				t = "gauge"
			case Histogram:
				t = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", base, d.Help, base, t); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", k, counters[k]); err != nil {
			return err
		}
	}
	return nil
}

// WriteTraceJSON writes a merged trace as a JSON array of events, one
// per line, deterministic byte-for-byte given a deterministic trace.
func WriteTraceJSON(w io.Writer, events []TraceEvent) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// chromeEvent is one Chrome trace_event entry: instant events on a
// per-flow "thread" so chrome://tracing (or Perfetto) lays a sampled
// flow's hops out on its own row.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes a merged trace in Chrome trace_event format
// (load via chrome://tracing or ui.perfetto.dev).
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: make([]chromeEvent, 0, len(events))}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Kind + " @ " + ev.Node,
			Ph:   "i",
			TS:   float64(ev.T) / 1e3,
			PID:  1,
			TID:  ev.Flow,
			S:    "t",
		}
		if ev.Detail != "" {
			ce.Args = map[string]any{"detail": ev.Detail}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteTable writes rows under a header, each column padded to its
// widest cell and two spaces from the next, with a rule of dashes under
// the header.
func WriteTable(b *strings.Builder, cols []string, rows [][]string) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(cols)
	rule := make([]string, len(cols))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	line(rule)
	for _, row := range rows {
		line(row)
	}
}
