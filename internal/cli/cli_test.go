package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMainExitCodes checks dispatch and the exit-code contract: 0 for
// success and -h, 2 for usage errors (printed once), 1 for failures.
func TestMainExitCodes(t *testing.T) {
	cmds := []Command{
		{Name: "ok", Summary: "succeeds\nsecond line", Run: func(env *Env, args []string) error {
			fs := env.Flags("ok")
			fs.Int("n", 0, "a count")
			if err := Parse(fs, args); err != nil {
				return err
			}
			_, err := io.WriteString(env.Stdout, "done\n")
			return err
		}},
		{Name: "usage", Run: func(*Env, []string) error { return Usagef("-x is wrong") }},
		{Name: "fail", Run: func(*Env, []string) error { return errors.New("boom") }},
	}
	for _, tc := range []struct {
		args       []string
		code       int
		stdout     string
		stderrHas  string
		stderrLine int // lines of stderr; -1 = don't care
	}{
		{[]string{"ok"}, 0, "done\n", "", 0},
		{[]string{"ok", "-h"}, 0, "", "-n int", -1},
		{[]string{"ok", "-nope"}, 2, "", "flag provided but not defined: -nope", -1},
		{[]string{"usage"}, 2, "", "prog: -x is wrong\n", 1},
		{[]string{"fail"}, 1, "", "prog: boom\n", 1},
		{nil, 2, "", "  ok     succeeds\n         second line\n", -1},
		{[]string{"nope"}, 2, "", "usage: prog <command> [flags]", -1},
	} {
		var stdout, stderr bytes.Buffer
		code := Main("prog", cmds, tc.args, &stdout, &stderr)
		if code != tc.code || stdout.String() != tc.stdout || !strings.Contains(stderr.String(), tc.stderrHas) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q", tc.args, code, stdout.String(), stderr.String())
		}
		if n := strings.Count(stderr.String(), "\n"); tc.stderrLine >= 0 && n != tc.stderrLine {
			t.Errorf("%q: %d stderr lines, want %d: %q", tc.args, n, tc.stderrLine, stderr.String())
		}
	}
}

// TestOutputsReportErrors checks that the artifact writer skips empty
// paths, writes the rest, and surfaces a failed Create at Close.
func TestOutputsReportErrors(t *testing.T) {
	dir := t.TempDir()
	var out Outputs
	if w := out.Create(""); w != nil {
		t.Fatal("empty path gave a writer")
	}
	w := out.Create(filepath.Join(dir, "a"))
	if _, err := io.WriteString(w, "x"); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(nil); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(filepath.Join(dir, "a")); string(b) != "x" {
		t.Errorf("artifact = %q", b)
	}

	var bad Outputs
	if w := bad.Create(filepath.Join(dir, "missing", "b")); w != nil || bad.Err() == nil {
		t.Fatal("create in a missing directory succeeded")
	}
	if w := bad.Create(filepath.Join(dir, "c")); w != nil {
		t.Error("create after a failure gave a writer")
	}
	if err := bad.Close(nil); err == nil {
		t.Error("Close hid the create failure")
	}
	runErr := errors.New("run failed")
	if err := bad.Close(runErr); err != runErr {
		t.Errorf("Close(runErr) = %v", err)
	}
}

func TestParseVerb(t *testing.T) {
	verbs := []string{"start", "stop"}
	for _, tc := range []struct {
		args []string
		verb string
		i    int
		err  string // "" = ok; "-" = silent usage error
	}{
		{[]string{"start", "-i", "2"}, "start", 2, ""},
		{[]string{"-i", "3", "stop"}, "stop", 3, ""},
		{[]string{"-i", "3", "stop", "-i", "4"}, "stop", 4, ""},
		{nil, "", 0, "-"},
		{[]string{""}, "", 0, "-"},
		{[]string{"-nope"}, "", 0, "-"},
		{[]string{"bogus"}, "", 0, `unknown verb "bogus"`},
		{[]string{"start", "extra"}, "", 0, `unexpected argument "extra"`},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		var usage bytes.Buffer
		fs.SetOutput(&usage)
		i := fs.Int("i", 0, "")
		verb, err := ParseVerb(fs, tc.args, verbs)
		switch {
		case tc.err == "":
			if err != nil || verb != tc.verb || *i != tc.i {
				t.Errorf("%q: verb %q, -i %d, err %v", tc.args, verb, *i, err)
			}
		case !errors.Is(err, ErrUsage) || usage.Len() == 0:
			t.Errorf("%q: err %v, usage %q; want a usage error after the usage", tc.args, err, usage.String())
		case tc.err != "-" && err.Error() != tc.err:
			t.Errorf("%q: err %q, want %q", tc.args, err, tc.err)
		}
	}
}
