// Package cli is the command runtime shared by the paperbench and
// gpufaas binaries: a command table dispatched by Main with uniform
// exit codes, the -serve helper, the artifact writer, and the span
// exports of one instrumented run.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"repro/internal/obs/live"
)

// ErrUsage marks a command-line error: Main exits with status 2 rather
// than 1.
var ErrUsage = errors.New("usage")

// usageError is a command-line error whose message stands alone.
type usageError string

func (e usageError) Error() string        { return string(e) }
func (e usageError) Is(target error) bool { return target == ErrUsage }

// Usagef formats a command-line error: Main prints it and exits 2.
func Usagef(format string, a ...any) error {
	return usageError(fmt.Sprintf(format, a...))
}

// errReported is a parse error the flag package has already printed,
// with the flag list, so Main exits 2 without printing it again.
var errReported = usageError("flag parse error")

// Env is what a command runs against: the program name for its
// messages and the streams it writes to.
type Env struct {
	Prog           string
	Stdout, Stderr io.Writer
}

// Command is one entry of a binary's command table.
type Command struct {
	Name string
	// Summary is the usage line; further lines are indented under it.
	Summary string
	Run     func(env *Env, args []string) error
}

// Flags returns a flag set for the named command that reports to the
// env's stderr and leaves error handling to Main.
func (e *Env) Flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(e.Stderr)
	return fs
}

// Parse parses args into fs. -h returns flag.ErrHelp, which Main maps
// to exit 0.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errReported
	}
	return err
}

// Main runs the command args[0] names from cmds (args excludes the
// program name) and returns the process exit status: 0 on success or
// -h, 1 when the run fails, 2 for a command-line error. A missing or
// unknown command prints the usage built from the table.
func Main(prog string, cmds []Command, args []string, stdout, stderr io.Writer) int {
	var cmd *Command
	for i := range cmds {
		if len(args) > 0 && cmds[i].Name == args[0] {
			cmd = &cmds[i]
		}
	}
	if cmd == nil {
		usage(stderr, prog, cmds)
		return 2
	}
	return Exit(prog, cmd.Run(&Env{Prog: prog, Stdout: stdout, Stderr: stderr}, args[1:]), stderr)
}

// Exit maps a command's error to the process exit status — 0 for nil
// or -h, 2 for a usage error, 1 otherwise — printing the error, unless
// the flag package already has, on stderr.
func Exit(prog string, err error, stderr io.Writer) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errReported):
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", prog, err)
	if errors.Is(err, ErrUsage) {
		return 2
	}
	return 1
}

func usage(w io.Writer, prog string, cmds []Command) {
	width := 0
	for _, c := range cmds {
		width = max(width, len(c.Name))
	}
	fmt.Fprintf(w, "usage: %s <command> [flags]\n\ncommands:\n", prog)
	for _, c := range cmds {
		lines := strings.Split(c.Summary, "\n")
		fmt.Fprintf(w, "  %-*s  %s\n", width, c.Name, lines[0])
		for _, l := range lines[1:] {
			fmt.Fprintf(w, "  %*s  %s\n", width, "", l)
		}
	}
	fmt.Fprintf(w, "\nRun '%s <command> -h' for its flags. Count, rate and duration flags\nmust not be negative; 0 selects the default.\n", prog)
}

// ParseVerb parses a verb-style command line, "<verb> [flags]" or
// "[flags] <verb> [flags]", into fs and returns the verb. A parse
// error, a missing or unknown verb, or a stray argument is a usage
// error, reported after fs's usage.
func ParseVerb(fs *flag.FlagSet, args, verbs []string) (string, error) {
	verb := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb, args = args[0], args[1:]
	}
	if err := Parse(fs, args); err != nil {
		return "", err
	}
	if verb == "" && fs.NArg() > 0 {
		verb = fs.Arg(0)
		if err := Parse(fs, fs.Args()[1:]); err != nil {
			return "", err
		}
	}
	var err error
	switch {
	case verb == "":
		err = errReported
	case !slices.Contains(verbs, verb):
		err = Usagef("unknown verb %q", verb)
	case fs.NArg() > 0:
		err = Usagef("unexpected argument %q", fs.Arg(0))
	default:
		return verb, nil
	}
	fs.Usage()
	return "", err
}

// Serve runs fn with the live observability server bound to addr, or
// with a nil server when addr is empty (every live hook is nil-safe).
// After fn succeeds the process keeps serving the finished run's
// telemetry until interrupted, so the endpoints stay curl-able.
func (e *Env) Serve(addr string, fn func(srv *live.Server) error) error {
	if addr == "" {
		return fn(nil)
	}
	srv := live.NewServer()
	bound, err := srv.Start(addr)
	if err != nil {
		return fmt.Errorf("-serve: %w", err)
	}
	defer srv.Close()
	fmt.Fprintf(e.Stderr, "%s: live observability on http://%s\n", e.Prog, bound)
	srv.Progress().SetPhase("running")
	if err := fn(srv); err != nil {
		return err
	}
	srv.Progress().SetPhase("done")
	fmt.Fprintf(e.Stderr, "%s: run complete; still serving — interrupt (Ctrl-C) to exit\n", e.Prog)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
	return nil
}

// Outputs creates a command's artifact files and closes them together,
// so a failed Close (a full disk, say) fails the command instead of
// passing unnoticed.
type Outputs struct {
	files []*os.File
	err   error
}

// Create opens path for writing. It returns nil when path is empty or
// when this or an earlier Create failed; Err and Close report the
// failure.
func (o *Outputs) Create(path string) io.Writer {
	if path == "" || o.err != nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		o.err = err
		return nil
	}
	o.files = append(o.files, f)
	return f
}

// Err returns the first Create failure.
func (o *Outputs) Err() error { return o.err }

// Close closes every file and returns err when it is non-nil, else the
// first Create or Close failure.
func (o *Outputs) Close(err error) error {
	if err == nil {
		err = o.err
	}
	for _, f := range o.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	o.files = nil
	return err
}
