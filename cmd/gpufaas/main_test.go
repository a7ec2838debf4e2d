package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// repartTraceSHA pins the repart -trace artifact (~350 KB, too large
// for testdata) captured from the retained-snapshot exporter.
const repartTraceSHA = "da2091ff4fe47a7834ac39199d4ee7981e70032264e4a0a1551e9d470a86bb70"

// run runs one gpufaas invocation and returns its exit status, stdout
// and stderr.
func run(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := cli.Main("gpufaas", commands, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// runOK runs one invocation that must succeed and returns its stdout.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	code, stdout, stderr := run(args...)
	if code != 0 {
		t.Fatalf("%q: exit %d: %s", args, code, stderr)
	}
	return []byte(stdout)
}

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (%d vs %d bytes)", name, len(got), len(want))
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMultiplexArtifactsGolden pins every export of one multiplex run
// — trace, metrics, attribution, flame stacks, SLO alerts and the
// printed summary — to goldens captured before the snapshot exporters
// were retired.
func TestMultiplexArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	stdout := runOK(t, "multiplex",
		"-procs", "2", "-completions", "8",
		"-trace", p("trace.json"), "-metrics", p("metrics.prom"),
		"-attrib", p("attrib.json"), "-flame", p("flame"),
		"-slo", "llama-complete:2s:0.9", "-alerts", p("alerts"))
	checkGolden(t, "multiplex.stdout", stdout)
	checkGolden(t, "multiplex.trace.json", readFile(t, p("trace.json")))
	checkGolden(t, "multiplex.prom", readFile(t, p("metrics.prom")))
	checkGolden(t, "multiplex.attrib.json", readFile(t, p("attrib.json")))
	checkGolden(t, "multiplex.flame", readFile(t, p("flame")))
	checkGolden(t, "multiplex.alerts", readFile(t, p("alerts")))
}

// TestRepartArtifactsGolden is the same pin for one controller run of
// the phase-shifted repart scenario.
func TestRepartArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	stdout := runOK(t, "repart",
		"-trace", p("trace.json"), "-metrics", p("metrics.prom"),
		"-attrib", p("attrib.json"), "-flame", p("flame"),
		"-slo", "svc-a:300ms:0.9,svc-b:300ms:0.9", "-alerts", p("alerts"))
	checkGolden(t, "repart.stdout", stdout)
	sum := sha256.Sum256(readFile(t, p("trace.json")))
	if got := hex.EncodeToString(sum[:]); got != repartTraceSHA {
		t.Errorf("repart trace sha256 = %s, want %s", got, repartTraceSHA)
	}
	checkGolden(t, "repart.prom", readFile(t, p("metrics.prom")))
	checkGolden(t, "repart.attrib.json", readFile(t, p("attrib.json")))
	checkGolden(t, "repart.flame", readFile(t, p("flame")))
	checkGolden(t, "repart.alerts", readFile(t, p("alerts")))
}

// TestChaosAttributionGolden pins the attribution of a multiplex run
// under seeded fault injection, where retries, restarts and terminal
// failures all feed the attribution sweep.
func TestChaosAttributionGolden(t *testing.T) {
	attrib := filepath.Join(t.TempDir(), "attrib.json")
	stdout := runOK(t, "multiplex", "-chaos", "seed=7,rate=0.5", "-attrib", attrib)
	checkGolden(t, "chaos.stdout", stdout)
	checkGolden(t, "chaos.attrib.json", readFile(t, attrib))
}

// TestMolDesignGolden pins the default moldesign campaign summary and
// its phase timeline.
func TestMolDesignGolden(t *testing.T) {
	checkGolden(t, "moldesign.stdout", runOK(t, "moldesign"))
}

// TestLibraryCommandsGolden pins the stdout of the planning commands
// and of small fleet and autoscale scenarios, with the -alerts files
// of the latter, to goldens captured before the commands moved onto
// the shared command table.
func TestLibraryCommandsGolden(t *testing.T) {
	checkGolden(t, "pack.stdout", runOK(t, "pack", "-tenant", "llama:21:18", "-tenant", "resnet:10:1"))
	checkGolden(t, "sweep.stdout", runOK(t, "sweep"))
	checkGolden(t, "fleet-demands.stdout", runOK(t, "fleet", "-demands", "llama:30:20;resnet:10:1"))

	dir := t.TempDir()
	alerts := filepath.Join(dir, "fleet.alerts")
	checkGolden(t, "fleet.stdout", runOK(t, "fleet",
		"-gpus80", "8", "-gpus40", "8", "-apps", "16", "-horizon", "2m", "-alerts", alerts))
	checkGolden(t, "fleet.alerts", readFile(t, alerts))

	alerts = filepath.Join(dir, "autoscale.alerts")
	checkGolden(t, "autoscale.stdout", runOK(t, "autoscale", "-gpus", "2", "-horizon", "10m", "-alerts", alerts))
	checkGolden(t, "autoscale.alerts", readFile(t, alerts))
}

// TestNegativeFlagsRejected checks that negative counts and durations
// are command-line errors (exit status 2) naming the flag, before
// anything runs.
func TestNegativeFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"fleet", "-gpus80", "-3", "-gpus40", "2"},
		{"fleet", "-gpus40", "-1", "-demands", "a:30:20"},
		{"fleet", "-apps", "-1"},
		{"fleet", "-horizon", "-1m"},
		{"fleet", "-rate", "-2"},
		{"autoscale", "-gpus", "-2"},
		{"autoscale", "-static", "-1"},
		{"autoscale", "-horizon", "-1h"},
		{"autoscale", "-hold", "-1s"},
	} {
		flag := args[1]
		code, stdout, stderr := run(args...)
		if code != 2 || !strings.Contains(stderr, flag+" must not be negative") || stdout != "" {
			t.Errorf("%q: exit %d, stderr %q, stdout %q; want exit 2 naming %s", args, code, stderr, stdout, flag)
		}
	}
}

// TestCommandLineErrors checks that every other command-line error —
// a missing or unknown command, an unknown flag, an inconsistent or
// malformed flag value, a campaign too small to run — exits with
// status 2, names its cause on stderr in one line and runs nothing.
func TestCommandLineErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{nil, "usage: gpufaas <command>"},
		{[]string{"bogus"}, "usage: gpufaas <command>"},
		{[]string{"multiplex", "-nope"}, "flag provided but not defined: -nope"},
		{[]string{"multiplex", "-alerts", "out.alerts"}, "gpufaas: -alerts requires -slo"},
		{[]string{"multiplex", "-slo", "nonsense"}, "gpufaas: -slo:"},
		{[]string{"multiplex", "-chaos", "rate=abc"}, "gpufaas: -chaos:"},
		{[]string{"repart", "-spec", "policy=bogus"}, "gpufaas: -spec:"},
		{[]string{"repart", "-spec", "policy=knee", "-static", "mps"}, "mutually exclusive"},
		{[]string{"pack"}, "pack needs at least one -tenant"},
		{[]string{"sweep", "-percents", "5,x"}, "bad percentage"},
		{[]string{"fleet", "-demands", "a:b"}, "gpufaas: -demands:"},
		{[]string{"moldesign", "-pool", "0"}, "gpufaas: -pool must be at least the batch size (16), got 0\n"},
		{[]string{"moldesign", "-batch", "0"}, "gpufaas: -batch must be at least 1, got 0\n"},
		{[]string{"moldesign", "-initial", "0"}, "gpufaas: -initial must be at least 1, got 0\n"},
		{[]string{"moldesign", "-rounds", "-1"}, "-rounds must not be negative"},
		{[]string{"tracediff", "-a", "x.json"}, "tracediff needs -a and -b"},
	} {
		code, stdout, stderr := run(tc.args...)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%q: stderr %q does not contain %q", tc.args, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%q: printed %q to stdout", tc.args, stdout)
		}
	}
}

// TestHelpExitsZero checks that -h on every command lists its flags on
// stderr and exits 0 without running anything.
func TestHelpExitsZero(t *testing.T) {
	for _, c := range commands {
		code, stdout, stderr := run(c.Name, "-h")
		if code != 0 || stdout != "" || !strings.Contains(stderr, "  -") {
			t.Errorf("%s -h: exit %d, stdout %q, stderr %q", c.Name, code, stdout, stderr)
		}
	}
}
