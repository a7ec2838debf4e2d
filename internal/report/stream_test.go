package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
)

// Goldens of the instrumented grid at completions 2 with the llama SLO,
// captured from the retained-snapshot exporters before they were
// retired (the streaming exporters matched them byte for byte, except
// for the collector self-telemetry below). Artifacts over ~100 KB are
// pinned by SHA-256; the small ones live in testdata/observed.
const (
	observedTraceSHA   = "cc4e2ca278f68c87192cdc5c76fdf3a6889c4c787194b65f7f7eb49ed4516607"
	observedMetricsSHA = "5a76ea13a322fe618009c8deecf2dbf0314c482381d6c456cbaa2dda449649bd"
	observedAttribSHA  = "544aa05e1b59b5282ccf810f9630366db94d331f32de9cbae61fa95da31e2687"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestStreamedArtifactsMatchSnapshot pins every instrumented-rerun
// artifact — trace, metrics, attribution JSON, folded flame stacks and
// SLO alerts — to the goldens captured from the snapshot exporters,
// at one and at four harness workers. The metrics golden carries the
// streaming self-telemetry (obs_spans_flushed_total,
// obs_spans_sampled_out_total, obs_spans_retained_peak): those three
// families were the only ones the retired snapshot mode reported
// differently.
func TestStreamedArtifactsMatchSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("full instrumented grid in -short mode")
	}
	const completions = 2
	const slo = "llama-complete:2s:0.9"
	wantFlame, err := os.ReadFile("testdata/observed/flame.folded")
	if err != nil {
		t.Fatal(err)
	}
	wantAlerts, err := os.ReadFile("testdata/observed/alerts.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(wantAlerts, []byte("llama-complete")) {
		t.Fatalf("alerts golden has no llama-complete alert:\n%s", wantAlerts)
	}
	for _, workers := range []int{1, 4} {
		prev := harness.SetParallelism(workers)
		var tr, pr, at, fl, al bytes.Buffer
		err := Observability(&tr, &pr, completions, 0)
		if err == nil {
			err = AttributionArtifacts(&at, &fl, &al, completions, slo)
		}
		harness.SetParallelism(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, c := range []struct {
			name, want string
			got        []byte
		}{
			{"trace", observedTraceSHA, tr.Bytes()},
			{"metrics", observedMetricsSHA, pr.Bytes()},
			{"attrib", observedAttribSHA, at.Bytes()},
		} {
			if got := sha(c.got); got != c.want {
				t.Errorf("workers=%d: %s sha256 = %s, want %s (%d bytes)", workers, c.name, got, c.want, len(c.got))
			}
		}
		if !bytes.Equal(fl.Bytes(), wantFlame) {
			t.Errorf("workers=%d: flame differs from golden:\n%s", workers, firstDiff(wantFlame, fl.Bytes()))
		}
		if !bytes.Equal(al.Bytes(), wantAlerts) {
			t.Errorf("workers=%d: alerts differ from golden:\n%s", workers, firstDiff(wantAlerts, al.Bytes()))
		}
	}
}

// TestScaleVirtualGolden pins the virtual lines (everything but the
// wall-clock "wall:" lines) of `paperbench scale -tasks 8000 -shards 4`
// to the golden captured from the streaming run, at one and at four
// harness workers.
func TestScaleVirtualGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("8000-task scale run in -short mode")
	}
	want, err := os.ReadFile("testdata/scale_8000x4.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		prev := harness.SetParallelism(workers)
		var b bytes.Buffer
		err := Scale(&b, ScaleOptions{Tasks: 8000, Shards: 4})
		harness.SetParallelism(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var virt strings.Builder
		for _, line := range strings.SplitAfter(b.String(), "\n") {
			if !strings.HasPrefix(line, "wall:") {
				virt.WriteString(line)
			}
		}
		if got := []byte(virt.String()); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: scale virtual lines differ from golden:\n%s", workers, firstDiff(want, got))
		}
	}
}
