package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// repartTraceSHA pins the repart -trace artifact (~350 KB, too large
// for testdata) captured from the retained-snapshot exporter.
const repartTraceSHA = "da2091ff4fe47a7834ac39199d4ee7981e70032264e4a0a1551e9d470a86bb70"

// runCaptured runs one subcommand with stdout redirected to a file in
// dir and returns what it printed.
func runCaptured(t *testing.T, dir string, run func([]string) error, args ...string) []byte {
	t.Helper()
	out := filepath.Join(dir, "stdout")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	prev := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = prev
	f.Close()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
	stdout := runCaptured(t, dir, runMultiplex,
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
	stdout := runCaptured(t, dir, runRepart,
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
	dir := t.TempDir()
	attrib := filepath.Join(dir, "attrib.json")
	stdout := runCaptured(t, dir, runMultiplex, "-chaos", "seed=7,rate=0.5", "-attrib", attrib)
	checkGolden(t, "chaos.stdout", stdout)
	checkGolden(t, "chaos.attrib.json", readFile(t, attrib))
}
