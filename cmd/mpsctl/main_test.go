package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandLineErrors checks that an unknown flag, a missing, empty
// or unknown verb, and a stray argument each exit with status 2 and
// print the usage to stderr, without touching the node state file.
func TestCommandLineErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"status", "-nope"},
		nil,
		{"-f", "node.json"},
		{""},
		{"", "-i", "0"},
		{"bogus"},
		{"-i", "0", "bogus"},
		{"status", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "usage: mpsctl [flags] <") {
			t.Errorf("%q: no usage on stderr: %q", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q to stdout", args, stdout.String())
		}
	}
}

// TestFlagsAfterVerb checks that flags count on either side of the
// verb: the daemon starts on device 1 in both spellings.
func TestFlagsAfterVerb(t *testing.T) {
	for _, spelling := range []func(state string) []string{
		func(state string) []string { return []string{"start", "-f", state, "-i", "1"} },
		func(state string) []string { return []string{"-f", state, "start", "-i", "1"} },
	} {
		state := filepath.Join(t.TempDir(), "node.json")
		args := spelling(state)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d: %s", args, code, stderr.String())
		}
		stdout.Reset()
		run([]string{"-f", state, "status"}, &stdout, &stderr)
		if !strings.Contains(stdout.String(), "device 1 gpu1 (a100-80gb): MPS running") {
			t.Errorf("%q: status = %q", args, stdout.String())
		}
	}
}
