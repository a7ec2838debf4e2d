// Command migctl administers simulated MIG partitions with an
// nvidia-smi-like workflow, persisting state to a JSON file so that
// the layout survives across invocations.
//
//	migctl -f node.json enable  -i 0
//	migctl -f node.json create  -i 0 -profile 3g.40gb
//	migctl -f node.json list    -i 0
//	migctl -f node.json destroy -i 0 -uuid MIG-gpu0-1-3g.40gb
//	migctl -f node.json disable -i 0
//	migctl -f node.json profiles -i 0
//	migctl -f node.json env     -i 0 -uuid MIG-gpu0-1-3g.40gb
//
// The printed MIG UUIDs go straight into the Parsl-style executor's
// available_accelerators (paper Listing 3) or CUDA_VISIBLE_DEVICES.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/devstate"
	"repro/internal/gpuctl"
	"repro/internal/simgpu"
)

var verbs = []string{"enable", "disable", "create", "destroy", "list", "profiles", "env"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one migctl invocation (args excludes the program name)
// and returns the process exit status: 0 on success or -h, 1 when the
// verb fails, 2 for a command-line error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("migctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "node.json", "node state file")
	idx := fs.Int("i", 0, "device index")
	profile := fs.String("profile", "", "MIG profile (create)")
	uuid := fs.String("uuid", "", "instance UUID (destroy, env)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: migctl [flags] <%s>\n", strings.Join(verbs, "|"))
		fs.PrintDefaults()
	}
	verb, err := cli.ParseVerb(fs, args, verbs)
	if err == nil {
		err = apply(stdout, verb, *file, *idx, *profile, *uuid)
	}
	return cli.Exit("migctl", err, stderr)
}

func apply(w io.Writer, verb, file string, idx int, profile, uuid string) error {
	state, err := devstate.Load(file)
	if err != nil {
		return err
	}
	dev, err := state.Device(idx)
	if err != nil {
		return err
	}
	save := true
	switch verb {
	case "enable":
		if err := dev.EnableMIG(); err != nil {
			return err
		}
		fmt.Fprintf(w, "MIG mode enabled on %s (requires GPU reset on real hardware)\n", dev.Name)
	case "disable":
		if err := dev.DisableMIG(); err != nil {
			return err
		}
		fmt.Fprintf(w, "MIG mode disabled on %s\n", dev.Name)
	case "create":
		if profile == "" {
			return fmt.Errorf("create needs -profile")
		}
		u, err := dev.CreateInstance(profile)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "created %s\n", u)
	case "destroy":
		if uuid == "" {
			return fmt.Errorf("destroy needs -uuid")
		}
		if err := dev.DestroyInstance(uuid); err != nil {
			return err
		}
		fmt.Fprintf(w, "destroyed %s\n", uuid)
	case "list":
		save = false
		_, ins, err := dev.Materialize()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (%s): MIG %v, %d instance(s)\n", dev.Name, dev.Spec, dev.MIGEnabled, len(ins))
		for _, in := range ins {
			fmt.Fprintf(w, "  %-30s profile %-8s slices %d-%d  %d SMs  %.0f GB\n",
				in.UUID(), in.Profile().Name, in.StartSlice(),
				in.StartSlice()+in.Profile().Slices-1, in.SMs(),
				float64(in.Profile().MemBytes)/1e9)
		}
	case "profiles":
		save = false
		spec, err := devstate.SpecByName(dev.Spec)
		if err != nil {
			return err
		}
		profs := simgpu.MIGProfilesFor(spec)
		if len(profs) == 0 {
			fmt.Fprintf(w, "%s has no MIG support\n", spec.Name)
			return nil
		}
		for _, p := range profs {
			fmt.Fprintf(w, "  %-8s %d compute slice(s), %d SMs, %.0f GB\n",
				p.Name, p.Slices, p.Slices*spec.SMsPerSlice, float64(p.MemBytes)/1e9)
		}
	case "env":
		save = false
		if uuid == "" {
			return fmt.Errorf("env needs -uuid")
		}
		b := gpuctl.Binding{Accelerator: uuid}
		for k, v := range b.Environ() {
			fmt.Fprintf(w, "export %s=%s\n", k, v)
		}
	}
	if save {
		return state.Save(file)
	}
	return nil
}
