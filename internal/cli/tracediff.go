package cli

import (
	"fmt"
	"os"

	"repro/internal/obs/analyze"
)

// TraceDiff is the tracediff command: it compares two attribution
// JSON artifacts (written with -attrib) phase by phase, prints the
// delta table to stdout, and with -o also writes the machine-readable
// diff as JSON. Flag errors and missing -a/-b are usage errors.
func TraceDiff(env *Env, args []string) error {
	fs := env.Flags("tracediff")
	aPath := fs.String("a", "", "baseline attribution JSON (written with -attrib)")
	bPath := fs.String("b", "", "comparison attribution JSON (written with -attrib)")
	outPath := fs.String("o", "", "also write the machine-readable diff as JSON to this file")
	labelA := fs.String("label-a", "", "label for run A (default: the -a path)")
	labelB := fs.String("label-b", "", "label for run B (default: the -b path)")
	fs.Usage = func() {
		fmt.Fprintf(env.Stderr, "usage: %s tracediff -a A.json -b B.json [-o out.json] [-label-a NAME] [-label-b NAME]\n", env.Prog)
		fs.PrintDefaults()
	}
	if err := Parse(fs, args); err != nil {
		return err
	}
	if *aPath == "" || *bPath == "" {
		fs.Usage()
		return Usagef("tracediff needs -a and -b attribution JSON files")
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
	var out Outputs
	if w := out.Create(*outPath); w != nil {
		err = d.WriteJSON(w)
	}
	if err := out.Close(err); err != nil {
		return err
	}
	return d.WriteText(env.Stdout)
}

func readReport(path string) (*analyze.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return analyze.ReadReport(f)
}
