package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
)

func sp(kind string, start, end time.Duration) Span {
	return Span{Kind: kind, Start: start, End: end}
}

func TestUnionMergesOverlaps(t *testing.T) {
	ivs := Union([]Span{
		sp("x", 0, 2*time.Second),
		sp("x", 1*time.Second, 3*time.Second),
		sp("x", 5*time.Second, 6*time.Second),
	})
	if len(ivs) != 2 {
		t.Fatalf("ivs = %v", ivs)
	}
	if ivs[0] != (Interval{0, 3 * time.Second}) || ivs[1] != (Interval{5 * time.Second, 6 * time.Second}) {
		t.Fatalf("ivs = %v", ivs)
	}
}

func TestUnionIgnoresZeroSpans(t *testing.T) {
	ivs := Union([]Span{sp("x", time.Second, time.Second)})
	if len(ivs) != 0 {
		t.Fatalf("ivs = %v", ivs)
	}
}

func TestGaps(t *testing.T) {
	spans := []Span{
		sp("x", 1*time.Second, 2*time.Second),
		sp("x", 4*time.Second, 5*time.Second),
	}
	gaps := Gaps(spans, 0, 6*time.Second)
	want := []Interval{{0, time.Second}, {2 * time.Second, 4 * time.Second}, {5 * time.Second, 6 * time.Second}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v", gaps)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps = %v", gaps)
		}
	}
}

func TestGapsFullyCovered(t *testing.T) {
	spans := []Span{sp("x", 0, 10*time.Second)}
	if gaps := Gaps(spans, 0, 10*time.Second); len(gaps) != 0 {
		t.Fatalf("gaps = %v", gaps)
	}
}

func TestBusyFraction(t *testing.T) {
	spans := []Span{
		sp("x", 0, 2*time.Second),
		sp("x", 1*time.Second, 3*time.Second), // overlap counts once
	}
	got := BusyFraction(spans, 0, 6*time.Second)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("busy = %v", got)
	}
	if BusyFraction(nil, 0, 0) != 0 {
		t.Fatal("degenerate window")
	}
}

func TestLogBasics(t *testing.T) {
	var l Log
	l.Add(sp("training", 0, 2*time.Second))
	l.Add(sp("inference", time.Second, 4*time.Second))
	l.Add(Span{Kind: "inference", Start: 5 * time.Second, End: 4 * time.Second}) // clamped
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	if l.Makespan() != 5*time.Second {
		t.Fatalf("makespan = %v", l.Makespan())
	}
	if got := l.OfKind("inference"); len(got) != 2 {
		t.Fatalf("inference spans = %d", len(got))
	}
	kinds := l.Kinds()
	if len(kinds) != 2 || kinds[0] != "training" {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestGanttRendering(t *testing.T) {
	var l Log
	l.Add(sp("training", 0, 5*time.Second))
	l.Add(sp("inference", 5*time.Second, 10*time.Second))
	l.Add(sp("simulation", 0, 10*time.Second))
	out := l.Gantt(10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 kinds, sorted by name
		t.Fatalf("out:\n%s", out)
	}
	for i, want := range []string{" inference  |.....IIIII|", "simulation  |SSSSSSSSSS|", "  training  |TTTTT.....|"} {
		if lines[i+1] != want {
			t.Fatalf("row %d = %q, want %q", i+1, lines[i+1], want)
		}
	}
}

func TestGanttGroupByKindAndGlyphs(t *testing.T) {
	var l Log
	l.Add(sp("training", 0, time.Second))
	l.Add(sp("training", time.Second, 2*time.Second))
	l.Add(Span{Start: 0, End: 0})
	out := l.Gantt(4)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Both training spans share one row; a kind-less span draws '#'.
	if len(lines) != 3 || lines[1] != "          |#...|" || lines[2] != "training  |TTTT|" {
		t.Fatalf("out:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	var l Log
	if got := l.Gantt(0); got != "(empty trace)\n" {
		t.Fatalf("got %q", got)
	}
}

func TestGanttTinySpanVisible(t *testing.T) {
	var l Log
	l.Add(sp("x", 0, 100*time.Second))
	l.Add(sp("y", 50*time.Second, 50*time.Second+time.Millisecond))
	out := l.Gantt(20)
	if !strings.Contains(out, "Y") {
		t.Fatalf("tiny span invisible:\n%s", out)
	}
}

func TestSummarize(t *testing.T) {
	var l Log
	l.Add(sp("training", 0, 2*time.Second))
	l.Add(sp("training", 1*time.Second, 3*time.Second))
	l.Add(sp("inference", 4*time.Second, 5*time.Second))
	sums := l.Summarize()
	if len(sums) != 2 {
		t.Fatalf("sums = %v", sums)
	}
	tr := sums[0]
	if tr.Kind != "training" || tr.Count != 2 || tr.TotalBusy != 3*time.Second || tr.SumSpans != 4*time.Second {
		t.Fatalf("training summary = %+v", tr)
	}
}

// Property: Union produces sorted, disjoint intervals covering exactly
// the busy time, and Gaps+coverage tile the window.
func TestQuickUnionGapsTile(t *testing.T) {
	f := func(raw []uint8) bool {
		spans := make([]Span, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			a := time.Duration(raw[i]) * time.Second
			b := a + time.Duration(raw[i+1]%10)*time.Second
			spans = append(spans, sp("k", a, b))
		}
		window := 300 * time.Second
		cov := Union(spans)
		for i := 1; i < len(cov); i++ {
			if cov[i].Start <= cov[i-1].End {
				return false // not disjoint or not sorted
			}
		}
		var covered, gapped time.Duration
		for _, iv := range cov {
			covered += iv.Duration()
		}
		for _, g := range Gaps(spans, 0, window) {
			gapped += g.Duration()
		}
		return covered+gapped == window
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSparkline(t *testing.T) {
	var s metrics.StepSeries
	s.Set(0, 0)
	s.Set(5*time.Second, 100)
	row := Sparkline(&s, 10*time.Second, 10, 100)
	r := []rune(row)
	if len(r) != 10 {
		t.Fatalf("width = %d", len(r))
	}
	if r[0] != ' ' || r[9] != '█' {
		t.Fatalf("row = %q", row)
	}
	// Degenerate inputs stay in bounds.
	if got := Sparkline(&s, 10*time.Second, 0, 0); len([]rune(got)) != 100 {
		t.Fatalf("default width broken")
	}
}
