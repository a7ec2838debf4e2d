package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/analyze"
)

// writeReport writes a one-task attribution JSON with the given
// compute and kernel-queue time.
func writeReport(t *testing.T, path string, compute, kq time.Duration) {
	t.Helper()
	var b analyze.Breakdown
	b[analyze.PhaseCompute] = compute
	b[analyze.PhaseKernelQueue] = kq
	rep := &analyze.Report{Tasks: []analyze.TaskAttribution{{
		Scope: "s", Task: 1, App: "a", EndNS: int64(compute + kq), Phases: b,
	}}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDiffNeedsBothInputs(t *testing.T) {
	for _, args := range [][]string{nil, {"-a", "x.json"}, {"-b", "y.json"}, {"-nope"}} {
		var stdout, stderr bytes.Buffer
		err := TraceDiff(&Env{"prog", &stdout, &stderr}, args)
		if !errors.Is(err, ErrUsage) {
			t.Errorf("%v: err = %v, want ErrUsage", args, err)
		}
		if !strings.Contains(stderr.String(), "usage: prog tracediff -a A.json -b B.json") {
			t.Errorf("%v: no usage on stderr: %q", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: unexpected stdout %q", args, stdout.String())
		}
	}
}

func TestTraceDiffWritesJSON(t *testing.T) {
	dir := t.TempDir()
	a, b, out := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "diff.json")
	writeReport(t, a, 100*time.Millisecond, 300*time.Millisecond)
	writeReport(t, b, 110*time.Millisecond, 20*time.Millisecond)
	var stdout, stderr bytes.Buffer
	if err := TraceDiff(&Env{"prog", &stdout, &stderr}, []string{"-a", a, "-b", b, "-o", out, "-label-a", "ts", "-label-b", "mps"}); err != nil {
		t.Fatalf("TraceDiff: %v (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "<- dominant") {
		t.Errorf("text diff missing the dominant-phase callout:\n%s", stdout.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var d analyze.DiffReport
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("-o output is not JSON: %v\n%s", err, raw)
	}
	if d.Dominant != "kernel_queue" || d.LabelA != "ts" || d.LabelB != "mps" ||
		d.DeltaNS != int64(130*time.Millisecond-400*time.Millisecond) {
		t.Errorf("diff JSON = %+v", d)
	}
}

func TestTraceDiffMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := TraceDiff(&Env{"prog", &stdout, &stderr}, []string{"-a", "/nonexistent/a.json", "-b", "/nonexistent/b.json"})
	if err == nil || errors.Is(err, ErrUsage) {
		t.Fatalf("err = %v, want a file error", err)
	}
}
