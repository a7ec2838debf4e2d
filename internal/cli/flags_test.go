package cli

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

func TestNonNegative(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 0, "")
		fs.Int64("seed", 0, "")
		fs.Float64("rate", 0, "")
		fs.Duration("horizon", 0, "")
		return fs
	}
	for _, tc := range []struct {
		args []string
		bad  string // flag the error must name; "" = accepted
	}{
		{nil, ""},
		{[]string{"-n", "0", "-rate", "0", "-horizon", "0s"}, ""},
		{[]string{"-n", "3", "-rate", "1.5", "-horizon", "2m"}, ""},
		{[]string{"-seed", "-4"}, ""}, // not checked
		{[]string{"-n", "-1"}, "-n"},
		{[]string{"-rate", "-0.5"}, "-rate"},
		{[]string{"-horizon", "-1s"}, "-horizon"},
	} {
		fs := newFS()
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := NonNegative(fs, "n", "rate", "horizon")
		if tc.bad == "" {
			if err != nil {
				t.Errorf("%v: err = %v", tc.args, err)
			}
			continue
		}
		if !errors.Is(err, ErrUsage) || !strings.Contains(err.Error(), tc.bad+" must not be negative") {
			t.Errorf("%v: err = %v, want ErrUsage naming %s", tc.args, err, tc.bad)
		}
	}
}
