package main

import (
	"bytes"
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
		if !strings.Contains(stderr.String(), "usage: migctl [flags] <") {
			t.Errorf("%q: no usage on stderr: %q", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q to stdout", args, stdout.String())
		}
	}
}
