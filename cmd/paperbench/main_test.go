package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandLineErrors checks that every command-line error exits
// with status 2, names its cause on stderr and runs nothing.
func TestCommandLineErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{nil, "usage: paperbench <command>"},
		{[]string{"bogus"}, "usage: paperbench <command>"},
		{[]string{"fig4", "-nope"}, "flag provided but not defined: -nope"},
		{[]string{"fig4", "-alerts", "out.alerts"}, "-alerts requires -slo"},
		{[]string{"fig4", "-chaos", "rate=abc"}, "paperbench: -chaos:"},
		{[]string{"repart", "-repart", "policy=bogus"}, "paperbench: -repart:"},
		{[]string{"fig4", "-slo", "nonsense"}, "paperbench: -slo:"},
		{[]string{"fig4", "-completions", "-5"}, "-completions must not be negative"},
		{[]string{"fig4", "-sample", "-1"}, "-sample must not be negative"},
		{[]string{"scale", "-tasks", "-1"}, "-tasks must not be negative"},
		{[]string{"scale", "-shards", "-2"}, "-shards must not be negative"},
		{[]string{"scale", "-workers", "-1"}, "-workers must not be negative"},
		{[]string{"scale", "-window", "-1"}, "-window must not be negative"},
		{[]string{"scale", "-arrival", "-0.5"}, "-arrival must not be negative"},
		{[]string{"fleet", "-gpus80", "-3", "-gpus40", "2"}, "-gpus80 must not be negative"},
		{[]string{"fleet", "-gpus40", "-1"}, "-gpus40 must not be negative"},
		{[]string{"fleet", "-apps", "-1"}, "-apps must not be negative"},
		{[]string{"fleet", "-horizon", "-1m"}, "-horizon must not be negative"},
		{[]string{"autoscale", "-gpus", "-2"}, "-gpus must not be negative"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q does not contain %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %d bytes to stdout", tc.args, stdout.Len())
		}
	}
}

// TestZeroMeansDefault checks that an explicit 0 is accepted where a
// negative value is not: the run proceeds with the default.
func TestZeroMeansDefault(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fig1", "-completions", "0", "-sample", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "resnet50") {
		t.Fatalf("fig1 output missing: %q", stdout.String())
	}
}

// TestScenarioAlertsGolden pins the fleet and autoscale artifacts at a
// small size, with their -alerts files, to goldens captured before the
// artifacts moved onto the shared command table.
func TestScenarioAlertsGolden(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"fleet", []string{"fleet", "-gpus80", "8", "-gpus40", "8", "-apps", "16", "-horizon", "2m"}},
		{"autoscale", []string{"autoscale", "-gpus", "2", "-horizon", "10m"}},
	} {
		alerts := filepath.Join(dir, tc.name+".alerts")
		var stdout, stderr bytes.Buffer
		if code := run(append(tc.args, "-alerts", alerts), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.name, code, stderr.String())
		}
		got, err := os.ReadFile(alerts)
		if err != nil {
			t.Fatal(err)
		}
		for file, b := range map[string][]byte{tc.name + ".stdout": stdout.Bytes(), tc.name + ".alerts": got} {
			want, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, want) {
				t.Errorf("%s differs from golden (%d vs %d bytes)", file, len(b), len(want))
			}
		}
	}
}
