// Package cli holds command-line modes shared by the paperbench and
// gpufaas commands.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs/analyze"
)

// ErrUsage marks a command-line error: the caller should exit with
// status 2 rather than 1.
var ErrUsage = errors.New("usage")

// TraceDiff implements the tracediff mode: it compares two attribution
// JSON artifacts (written with -attrib) phase by phase, prints the
// delta table to stdout, and with -o also writes the machine-readable
// diff as JSON. prog names the command in the usage text, which goes
// to stderr. Flag errors and missing -a/-b wrap ErrUsage.
func TraceDiff(prog string, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracediff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	aPath := fs.String("a", "", "baseline attribution JSON (written with -attrib)")
	bPath := fs.String("b", "", "comparison attribution JSON (written with -attrib)")
	outPath := fs.String("o", "", "also write the machine-readable diff as JSON to this file")
	labelA := fs.String("label-a", "", "label for run A (default: the -a path)")
	labelB := fs.String("label-b", "", "label for run B (default: the -b path)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s tracediff -a A.json -b B.json [-o out.json] [-label-a NAME] [-label-b NAME]\n", prog)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", ErrUsage, err)
	}
	if *aPath == "" || *bPath == "" {
		fs.Usage()
		return fmt.Errorf("%w: tracediff needs -a and -b attribution JSON files", ErrUsage)
	}
	if *labelA == "" {
		*labelA = *aPath
	}
	if *labelB == "" {
		*labelB = *bPath
	}
	a, err := readReport(*aPath)
	if err != nil {
		return err
	}
	b, err := readReport(*bPath)
	if err != nil {
		return err
	}
	d := analyze.Diff(a, b, *labelA, *labelB)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		err = d.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return d.WriteText(stdout)
}

func readReport(path string) (*analyze.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return analyze.ReadReport(f)
}
