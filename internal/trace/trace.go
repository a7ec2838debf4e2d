// Package trace is the paper's Fig. 3 timeline: it collects the
// molecular-design campaign's task phases (simulation, training,
// inference) and renders them as a Gantt chart with idle-time
// statistics, showing the GPU idle gaps between inference bursts.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Span is one timed activity.
type Span struct {
	// Kind groups spans into Gantt rows and picks their glyph
	// ("simulation", "training", "inference").
	Kind string
	// Start and End are virtual times.
	Start time.Duration
	End   time.Duration
}

// Duration returns End-Start.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Log is an append-only span collection.
type Log struct {
	spans []Span
}

// Add appends a span; zero-length and negative spans are kept (they
// mark instants) but never break interval math.
func (l *Log) Add(s Span) {
	if s.End < s.Start {
		s.End = s.Start
	}
	l.spans = append(l.spans, s)
}

// Len returns the span count.
func (l *Log) Len() int { return len(l.spans) }

// OfKind returns the spans with the given kind.
func (l *Log) OfKind(kind string) []Span {
	var out []Span
	for _, s := range l.spans {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// Kinds returns the distinct kinds in first-seen order.
func (l *Log) Kinds() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range l.spans {
		if !seen[s.Kind] {
			seen[s.Kind] = true
			out = append(out, s.Kind)
		}
	}
	return out
}

// Makespan returns the latest span end.
func (l *Log) Makespan() time.Duration {
	var m time.Duration
	for _, s := range l.spans {
		if s.End > m {
			m = s.End
		}
	}
	return m
}

// Interval is a half-open [Start, End) time range.
type Interval struct {
	Start, End time.Duration
}

// Duration returns End-Start.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// Union merges possibly overlapping spans into disjoint intervals in
// increasing time order.
func Union(spans []Span) []Interval {
	if len(spans) == 0 {
		return nil
	}
	ivs := make([]Interval, 0, len(spans))
	for _, s := range spans {
		if s.End > s.Start {
			ivs = append(ivs, Interval{s.Start, s.End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var out []Interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Gaps returns the idle intervals between the merged coverage of the
// spans, within [from, to].
func Gaps(spans []Span, from, to time.Duration) []Interval {
	cov := Union(spans)
	var out []Interval
	cursor := from
	for _, iv := range cov {
		if iv.End <= from {
			continue
		}
		if iv.Start >= to {
			break
		}
		if iv.Start > cursor {
			out = append(out, Interval{cursor, iv.Start})
		}
		if iv.End > cursor {
			cursor = iv.End
		}
	}
	if cursor < to {
		out = append(out, Interval{cursor, to})
	}
	return out
}

// BusyFraction returns covered time / window for the given spans.
func BusyFraction(spans []Span, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var busy time.Duration
	for _, iv := range Union(spans) {
		a, b := iv.Start, iv.End
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		if b > a {
			busy += b - a
		}
	}
	return float64(busy) / float64(to-from)
}

// Gantt renders the log as an ASCII chart width columns wide
// (default 100), one row per kind, '.' for idle. A span draws with the
// upper-cased first letter of its kind ('#' for no kind). Rows are
// sorted by name for determinism.
func (l *Log) Gantt(width int) string {
	if width <= 0 {
		width = 100
	}
	makespan := l.Makespan()
	if makespan == 0 || len(l.spans) == 0 {
		return "(empty trace)\n"
	}
	rows := map[string][]rune{}
	var order []string
	for _, s := range l.spans {
		key := s.Kind
		if _, ok := rows[key]; !ok {
			row := make([]rune, width)
			for i := range row {
				row[i] = '.'
			}
			rows[key] = row
			order = append(order, key)
		}
		glyph := '#'
		if s.Kind != "" {
			glyph = rune(strings.ToUpper(s.Kind)[0])
		}
		lo := int(float64(s.Start) / float64(makespan) * float64(width))
		hi := int(float64(s.End) / float64(makespan) * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		for i := lo; i < hi && i < width; i++ {
			rows[key][i] = glyph
		}
	}
	sort.Strings(order)
	labelW := 0
	for _, k := range order {
		if len(k) > labelW {
			labelW = len(k)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s  |%s| 0 .. %s\n", labelW, "", strings.Repeat("-", width), makespan.Round(time.Millisecond))
	for _, k := range order {
		fmt.Fprintf(&b, "%*s  |%s|\n", labelW, k, string(rows[k]))
	}
	return b.String()
}

// KindSummary is per-kind aggregate statistics.
type KindSummary struct {
	Kind      string
	Count     int
	TotalBusy time.Duration // union coverage
	SumSpans  time.Duration // sum of span durations (can exceed busy)
}

// Summarize computes per-kind aggregates in first-seen kind order.
func (l *Log) Summarize() []KindSummary {
	var out []KindSummary
	for _, kind := range l.Kinds() {
		spans := l.OfKind(kind)
		var sum time.Duration
		for _, s := range spans {
			sum += s.Duration()
		}
		var busy time.Duration
		for _, iv := range Union(spans) {
			busy += iv.Duration()
		}
		out = append(out, KindSummary{Kind: kind, Count: len(spans), TotalBusy: busy, SumSpans: sum})
	}
	return out
}

// Sparkline renders a step series (e.g. busy SMs over time) as one
// Gantt-width row of block glyphs, scaled to max. It pairs with
// Gantt output to show device utilization under the task rows.
func Sparkline(s *metrics.StepSeries, to time.Duration, width int, max float64) string {
	if width <= 0 {
		width = 100
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	row := make([]rune, width)
	for i := 0; i < width; i++ {
		a := time.Duration(float64(to) * float64(i) / float64(width))
		b := time.Duration(float64(to) * float64(i+1) / float64(width))
		v := s.Mean(a, b)
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(glyphs)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		row[i] = glyphs[idx]
	}
	return string(row)
}
