// Command mpsctl mimics nvidia-cuda-mps-control for the simulated
// node: start/stop the per-device daemon, set the default active
// thread percentage, and print the environment a client process must
// export for a given GPU percentage (the mechanism the paper's Parsl
// extension automates, §4.1).
//
//	mpsctl -f node.json start  -i 0
//	mpsctl -f node.json set-default -i 0 -pct 30
//	mpsctl -f node.json status
//	mpsctl -f node.json env    -i 0 -pct 25
//	mpsctl -f node.json quit   -i 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/devstate"
	"repro/internal/gpuctl"
)

var verbs = []string{"start", "quit", "set-default", "status", "env"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one mpsctl invocation (args excludes the program name)
// and returns the process exit status: 0 on success or -h, 1 when the
// verb fails, 2 for a command-line error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpsctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "node.json", "node state file")
	idx := fs.Int("i", 0, "device index")
	pct := fs.Int("pct", 0, "GPU percentage (set-default, env)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mpsctl [flags] <%s>\n", strings.Join(verbs, "|"))
		fs.PrintDefaults()
	}
	verb, err := cli.ParseVerb(fs, args, verbs)
	if err == nil {
		err = apply(stdout, stderr, verb, *file, *idx, *pct)
	}
	return cli.Exit("mpsctl", err, stderr)
}

func apply(w, stderr io.Writer, verb, file string, idx, pct int) error {
	state, err := devstate.Load(file)
	if err != nil {
		return err
	}
	save := true
	switch verb {
	case "status":
		save = false
		for i, d := range state.Devices {
			status := "stopped"
			if d.MPSRunning {
				status = "running"
				if d.MPSDefaultPct > 0 {
					status += " (default " + strconv.Itoa(d.MPSDefaultPct) + "%)"
				}
			}
			if d.MIGEnabled {
				status = "unavailable (MIG mode)"
			}
			fmt.Fprintf(w, "device %d %s (%s): MPS %s\n", i, d.Name, d.Spec, status)
		}
	case "start":
		dev, err := state.Device(idx)
		if err != nil {
			return err
		}
		if err := dev.StartMPS(); err != nil {
			return err
		}
		fmt.Fprintf(w, "nvidia-cuda-mps-control started on %s: clients now share the GPU spatially\n", dev.Name)
	case "quit":
		dev, err := state.Device(idx)
		if err != nil {
			return err
		}
		dev.QuitMPS()
		fmt.Fprintf(w, "MPS daemon on %s stopped: device back to time-sharing\n", dev.Name)
	case "set-default":
		dev, err := state.Device(idx)
		if err != nil {
			return err
		}
		if err := dev.SetMPSDefault(pct); err != nil {
			return err
		}
		fmt.Fprintf(w, "set_default_active_thread_percentage %d on %s\n", pct, dev.Name)
	case "env":
		save = false
		dev, err := state.Device(idx)
		if err != nil {
			return err
		}
		if !dev.MPSRunning {
			fmt.Fprintln(stderr, "note: MPS daemon not running — the percentage will be inert")
		}
		b := gpuctl.Binding{Accelerator: strconv.Itoa(idx), GPUPercent: pct}
		for _, k := range []string{gpuctl.EnvVisibleDevices, gpuctl.EnvMPSThreadPct} {
			if v, ok := b.Environ()[k]; ok {
				fmt.Fprintf(w, "export %s=%s\n", k, v)
			}
		}
	}
	if save {
		return state.Save(file)
	}
	return nil
}
