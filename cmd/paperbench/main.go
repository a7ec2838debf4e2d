// Command paperbench regenerates every table and figure of the
// paper's evaluation from the simulator.
//
// Usage:
//
//	paperbench <artifact> [flags]
//
// Run paperbench without arguments for the artifact list and
// paperbench <artifact> -h for the flags. fig4 and fig5 run the same
// experiment and print both; all runs every paper artifact in order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/moldesign"
	"repro/internal/obs/analyze"
	"repro/internal/obs/live"
	"repro/internal/repart"
	"repro/internal/report"
)

var commands = []cli.Command{
	artifact("fig1", "per-layer FLOP variation of CNNs",
		func(r *artifactRun) error { return report.Fig1(r.w, []int{1, 8, 32}) }),
	artifact("fig2", "LLaMa-2 latency vs #SMs under MPS",
		func(r *artifactRun) error { return report.Fig2(r.w, nil) }),
	artifact("fig3", "molecular-design timeline and GPU idle time",
		func(r *artifactRun) error { return report.Fig3(r.w, moldesign.DefaultConfig()) }),
	artifact("fig4", "completion time, 1-4 processes x {timeshare, MPS, MIG}",
		func(r *artifactRun) error { return report.Fig45(r.w, r.completions) }),
	artifact("fig5", "same experiment, average inference latency",
		func(r *artifactRun) error { return report.Fig45(r.w, r.completions) }),
	artifact("table1", "quantified multiplexing-technique comparison",
		func(r *artifactRun) error { return report.Table1(r.w) }),
	artifact("coldstart", "cold-start breakdown (function init / context / load)",
		func(r *artifactRun) error { return report.ColdStart(r.w) }),
	artifact("reconfig", "re-partitioning downtime incl. weight-cache ablation",
		func(r *artifactRun) error { return report.Reconfig(r.w) }),
	artifact("rightsize", "partition right-sizing study",
		func(r *artifactRun) error { return report.Rightsize(r.w) }),
	artifact("ablations", "design-choice ablations (host gap, mem fraction,\nbatching vs multiplexing, vGPU quantum)",
		func(r *artifactRun) error { return report.Ablations(r.w) }),
	artifact("mixed", "real-time ResNet next to a LLaMa service",
		func(r *artifactRun) error { return report.MixedTenancy(r.w) }),
	artifact("openloop", "Poisson-arrival serving: stability per technique",
		func(r *artifactRun) error { return report.OpenLoop(r.w) }),
	artifact("repart", "phase-shifted tenants: online repartitioning controller\nvs every static Table 1 plan (see -repart)",
		func(r *artifactRun) error { return report.Repart(r.w, r.repartSpec) }),
	artifact("attrib", "latency attribution: per-phase blame profiles for the\nTable 1 bursts plus the timeshare-vs-MPS trace diff",
		func(r *artifactRun) error { return report.Attribution(r.w, r.completions) }),
	scenario("scale", "million-task throughput: sharded open-loop microtask run\nreporting events/sec, span counts, and retained-window\nmemory (see -tasks/-shards/-workers/-window/-arrival/-seed)",
		func(r *artifactRun) error {
			return report.Scale(r.w, report.ScaleOptions{
				Tasks: r.tasks, Shards: r.shards, Workers: r.workers, Window: r.window,
				ArrivalRate: r.arrival, Seed: r.seed, SampleMod: r.sample,
				TracePath: r.trace, Alerts: r.scenarioAlerts, Live: r.srv,
			})
		}),
	scenario("fleet", "fleet-scale placement: fragmentation-aware MIG+MPS\npacking of 50+ apps over a 128-GPU mixed inventory under\nseeded churn, across a 0.5x/1.0x/1.5x offered-load grid\n(see -gpus80/-gpus40/-apps/-horizon/-arrival/-seed)",
		func(r *artifactRun) error {
			return report.Fleet(r.w, report.FleetOptions{
				GPUs80: r.gpus80, GPUs40: r.gpus40, Apps: r.apps,
				Duration: r.horizon, ArrivalRate: r.arrival, Seed: r.seed,
				Alerts: r.scenarioAlerts, Live: r.srv,
			})
		}),
	scenario("autoscale", "SLO-driven autoscaling: hybrid block scaling + admission\ncontrol against static provisioning baselines on the same\ndiurnal, bursty traffic (see -gpus/-horizon/-seed)",
		func(r *artifactRun) error {
			return report.Autoscale(r.w, report.AutoscaleOptions{
				GPUs: r.gpus, Horizon: r.horizon, Seed: r.seed,
				Alerts: r.scenarioAlerts, Live: r.srv,
			})
		}),
	artifact("all", "everything, in paper order (repart, attrib, scale, fleet,\nand autoscale excluded: run them explicitly)",
		func(r *artifactRun) error { return report.All(r.w, r.completions) }),
	{Name: "tracediff", Summary: "compare two attribution JSON artifacts written with -attrib", Run: cli.TraceDiff},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one paperbench invocation (args excludes the program
// name) and returns the process exit status: 0 on success, 1 when a
// run fails, 2 for a command-line error.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Main("paperbench", commands, args, stdout, stderr)
}

// flags are the flags every artifact takes.
type flags struct {
	completions, parallel, sample                          int
	csv, trace, metrics, chaos, repart, attrib, flame, slo string
	alerts, serve                                          string
	tasks, shards, workers, window, gpus80, gpus40, apps   int
	gpus                                                   int
	arrival                                                float64
	seed                                                   int64
	horizon                                                time.Duration
}

func (f *flags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.completions, "completions", 100, "completions for the fig4/fig5 experiment")
	fs.StringVar(&f.csv, "csv", "", "also write figure CSV series into this directory")
	fs.IntVar(&f.parallel, "parallel", runtime.NumCPU(), "max independent scenarios run concurrently (output is byte-identical at any setting)")
	fs.StringVar(&f.trace, "trace", "", "write a Chrome trace-event JSON file from an instrumented rerun")
	fs.StringVar(&f.metrics, "metrics", "", "write Prometheus text metrics from an instrumented rerun")
	fs.StringVar(&f.chaos, "chaos", "", "seeded fault-injection spec, e.g. seed=7,rate=0.5 (keys: seed, rate, pfail,\nkinds=worker+gpu+reconfig+endpoint+submit, after, until, max, reconnect)")
	fs.StringVar(&f.repart, "repart", "", "repartitioning-controller spec, e.g. policy=knee,interval=10s (keys: policy,\nmode, interval, tolerance, cooldown, delta, min, workers)")
	fs.StringVar(&f.attrib, "attrib", "", "write the latency-attribution JSON from an instrumented rerun")
	fs.StringVar(&f.flame, "flame", "", "write folded flamegraph stacks from an instrumented rerun")
	fs.StringVar(&f.slo, "slo", "", "SLO burn-rate rules for instrumented reruns, e.g. app:12s:0.9")
	fs.StringVar(&f.alerts, "alerts", "", "write the SLO alert stream (requires -slo); scale, fleet and autoscale\nwrite their alert-rule history without it")
	fs.IntVar(&f.sample, "sample", 0, "keep ~1/N of task trees in the trace")
	fs.IntVar(&f.tasks, "tasks", 0, "scale: total tasks (default 1000000)")
	fs.IntVar(&f.shards, "shards", 0, "scale: independent platform shards (default 8)")
	fs.IntVar(&f.workers, "workers", 0, "scale: CPU workers per shard (default 16)")
	fs.IntVar(&f.window, "window", 0, "scale: in-flight submissions per shard (default 64)")
	fs.Float64Var(&f.arrival, "arrival", 0, "scale: per-shard offered load in tasks/sec (default 8000)")
	fs.Int64Var(&f.seed, "seed", 0, "scale/fleet: RNG seed (default 1)")
	fs.IntVar(&f.gpus80, "gpus80", 0, "fleet: A100-80GB parts (default 64)")
	fs.IntVar(&f.gpus40, "gpus40", 0, "fleet: A100-40GB parts (default 64)")
	fs.IntVar(&f.apps, "apps", 0, "fleet: distinct applications (default 56)")
	fs.DurationVar(&f.horizon, "horizon", 0, "fleet/autoscale: arrival horizon on the virtual clock")
	fs.IntVar(&f.gpus, "gpus", 0, "autoscale: provider pool size (default 6)")
	fs.StringVar(&f.serve, "serve", "", "serve live observability over HTTP on this address, e.g. 127.0.0.1:9190\n(/metrics, /api/series, /spans, /progress, /healthz, /debug/pprof); the\nprocess keeps serving after the run until interrupted")
}

// artifactRun is one artifact invocation.
type artifactRun struct {
	flags
	w          io.Writer
	srv        *live.Server
	repartSpec repart.Spec
	// scenarioAlerts receives the scale/fleet/autoscale alert-rule
	// history (nil without -alerts).
	scenarioAlerts io.Writer
}

func artifact(name, summary string, fn func(*artifactRun) error) cli.Command {
	return command(name, summary, false, fn)
}

// scenario is an artifact that runs its own span streams and carries
// its own alert-rule pack, so -alerts stands alone and no generic
// instrumented rerun follows it.
func scenario(name, summary string, fn func(*artifactRun) error) cli.Command {
	return command(name, summary, true, fn)
}

func command(name, summary string, scenario bool, fn func(*artifactRun) error) cli.Command {
	return cli.Command{Name: name, Summary: summary, Run: func(env *cli.Env, args []string) error {
		r := &artifactRun{w: env.Stdout}
		fs := env.Flags(name)
		r.register(fs)
		if err := cli.Parse(fs, args); err != nil {
			return err
		}
		if err := cli.NonNegative(fs, "completions", "sample", "tasks", "shards", "workers",
			"window", "arrival", "gpus80", "gpus40", "apps", "horizon", "gpus"); err != nil {
			return err
		}
		if r.alerts != "" && r.slo == "" && !scenario {
			return cli.Usagef("-alerts requires -slo")
		}
		if r.slo != "" {
			if _, err := analyze.ParseSLOSpec(r.slo); err != nil {
				return cli.Usagef("-slo: %v", err)
			}
		}
		if r.repart != "" {
			spec, err := repart.ParseSpec(r.repart)
			if err != nil {
				return cli.Usagef("-repart: %v", err)
			}
			r.repartSpec = spec
		}
		if r.chaos != "" {
			spec, err := fault.ParseSpec(r.chaos)
			if err != nil {
				return cli.Usagef("-chaos: %v", err)
			}
			core.SetChaos(&spec)
			fmt.Fprintf(env.Stderr, "%s: chaos enabled (%s)\n", env.Prog, spec.String())
		}
		harness.SetParallelism(r.parallel)
		return env.Serve(r.serve, func(srv *live.Server) error {
			r.srv = srv
			var out cli.Outputs
			if scenario {
				r.scenarioAlerts = out.Create(r.alerts)
				if err := out.Err(); err != nil {
					return fmt.Errorf("-alerts: %w", err)
				}
			}
			err := fn(r)
			if err == nil && r.csv != "" {
				err = report.WriteFigureCSVs(r.csv, r.completions)
			}
			if err == nil && !scenario {
				err = r.rerun()
			}
			return out.Close(err)
		})
	}}
}

// rerun reruns the instrumented grid for the requested trace, metrics
// and attribution artifacts, once per group.
func (r *artifactRun) rerun() error {
	if r.trace != "" || r.metrics != "" {
		var out cli.Outputs
		trace, prom := out.Create(r.trace), out.Create(r.metrics)
		if err := out.Err(); err != nil {
			return out.Close(err)
		}
		if err := out.Close(report.Observability(trace, prom, r.completions, r.sample)); err != nil {
			return err
		}
	}
	if r.attrib != "" || r.flame != "" || r.alerts != "" {
		var out cli.Outputs
		attrib, flame, alerts := out.Create(r.attrib), out.Create(r.flame), out.Create(r.alerts)
		if err := out.Err(); err != nil {
			return out.Close(err)
		}
		return out.Close(report.AttributionArtifacts(attrib, flame, alerts, r.completions, r.slo))
	}
	return nil
}
