package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
)

// The alerts artifact's regression contract: for every scenario the
// rendered alert history is byte-identical at -parallel 1 and 4 and
// with span sinks attached (as the live server's tails are). The
// artifact goes to its own writer, so the scale scenario's wall-clock
// lines (which legitimately vary) never enter the comparison.

// nopSink discards spans; it is safe for concurrent use.
type nopSink struct{}

func (nopSink) EmitSpan(*obs.Span) {}

// nopWrap is a WrapSink that replaces every sink with a nopSink.
func nopWrap[K any](K, obs.SpanSink) obs.SpanSink { return nopSink{} }

func renderAutoscaleAlerts(t *testing.T, workers int, tee bool) []byte {
	t.Helper()
	prev := harness.SetParallelism(workers)
	defer harness.SetParallelism(prev)
	var art, alerts bytes.Buffer
	opts := autoscaleTestOptions()
	if tee {
		opts.WrapSink = nopWrap[string]
	}
	opts.Alerts = &alerts
	if err := Autoscale(&art, opts); err != nil {
		t.Fatalf("Autoscale with %d workers (tee=%v): %v", workers, tee, err)
	}
	return alerts.Bytes()
}

func TestAutoscaleAlertsArtifactDeterminism(t *testing.T) {
	seq := renderAutoscaleAlerts(t, 1, false)
	if len(seq) == 0 {
		t.Fatal("autoscale alerts artifact is empty")
	}
	out := string(seq)
	// Each cell registers the autoscale pack (slo-burn-page, shed-rate,
	// scale-flap) plus the SLO monitor's slo-burn rule for app "infer".
	for _, want := range []string{
		"cell=autoscaled alerts: rules=4",
		"cell=static-1 alerts: rules=4",
		"cell=static-4 alerts: rules=4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("alerts artifact is missing %q:\n%s", want, out)
		}
	}
	if par := renderAutoscaleAlerts(t, 4, false); !bytes.Equal(seq, par) {
		t.Fatalf("parallel alerts artifact differs from sequential:\n%s", firstDiff(seq, par))
	}
	if str := renderAutoscaleAlerts(t, 4, true); !bytes.Equal(seq, str) {
		t.Fatalf("alerts artifact with span sinks attached differs:\n%s", firstDiff(seq, str))
	}
}

func renderFleetAlerts(t *testing.T, workers int, tee bool) []byte {
	t.Helper()
	prev := harness.SetParallelism(workers)
	defer harness.SetParallelism(prev)
	var art, alerts bytes.Buffer
	opts := fleetTestOptions()
	if tee {
		opts.WrapSink = nopWrap[string]
	}
	opts.Alerts = &alerts
	if err := Fleet(&art, opts); err != nil {
		t.Fatalf("Fleet with %d workers (tee=%v): %v", workers, tee, err)
	}
	return alerts.Bytes()
}

func TestFleetAlertsArtifactDeterminism(t *testing.T) {
	seq := renderFleetAlerts(t, 1, false)
	if len(seq) == 0 {
		t.Fatal("fleet alerts artifact is empty")
	}
	out := string(seq)
	// Each load cell registers the fleet pack: frag-ceiling and
	// unplaced-demand.
	for _, want := range []string{
		"cell=load0.5x alerts: rules=2",
		"cell=load1.0x alerts: rules=2",
		"cell=load1.5x alerts: rules=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("alerts artifact is missing %q:\n%s", want, out)
		}
	}
	if par := renderFleetAlerts(t, 4, false); !bytes.Equal(seq, par) {
		t.Fatalf("parallel alerts artifact differs from sequential:\n%s", firstDiff(seq, par))
	}
	if str := renderFleetAlerts(t, 4, true); !bytes.Equal(seq, str) {
		t.Fatalf("alerts artifact with span sinks attached differs:\n%s", firstDiff(seq, str))
	}
}

func renderScaleAlerts(t *testing.T, workers int, tee bool) []byte {
	t.Helper()
	prev := harness.SetParallelism(workers)
	defer harness.SetParallelism(prev)
	var art, alerts bytes.Buffer
	opts := ScaleOptions{Tasks: 8000, Shards: 4, Seed: 3, Alerts: &alerts}
	if tee {
		opts.WrapSink = nopWrap[int]
	}
	if err := Scale(&art, opts); err != nil {
		t.Fatalf("Scale with %d workers (tee=%v): %v", workers, tee, err)
	}
	return alerts.Bytes()
}

func TestScaleAlertsArtifactDeterminism(t *testing.T) {
	seq := renderScaleAlerts(t, 1, false)
	if len(seq) == 0 {
		t.Fatal("scale alerts artifact is empty")
	}
	out := string(seq)
	// Each shard registers the scale pack: completion-stall only.
	for s := 0; s < 4; s++ {
		want := "shard=" + string(rune('0'+s)) + " alerts: rules=1"
		if !strings.Contains(out, want) {
			t.Errorf("alerts artifact is missing %q:\n%s", want, out)
		}
	}
	if par := renderScaleAlerts(t, 4, false); !bytes.Equal(seq, par) {
		t.Fatalf("parallel alerts artifact differs from sequential:\n%s", firstDiff(seq, par))
	}
	if str := renderScaleAlerts(t, 4, true); !bytes.Equal(seq, str) {
		t.Fatalf("alerts artifact with span sinks attached differs:\n%s", firstDiff(seq, str))
	}
}
