// Command paperbench regenerates every table and figure of the
// paper's evaluation from the simulator.
//
// Usage:
//
//	paperbench <artifact> [flags]
//
// Artifacts: fig1, fig2, fig3, fig4, fig5 (fig4 and fig5 run the same
// experiment and print both), table1, coldstart, reconfig, rightsize,
// all.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/moldesign"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/live"
	"repro/internal/obs/tsdb"
	"repro/internal/repart"
	"repro/internal/report"
)

// usageText is printed, with exit status 2, when the artifact is
// missing or unknown.
const usageText = `usage: paperbench <artifact> [flags]

artifacts:
  fig1       per-layer FLOP variation of CNNs
  fig2       LLaMa-2 latency vs #SMs under MPS
  fig3       molecular-design timeline and GPU idle time
  fig4       completion time, 1-4 processes x {timeshare, MPS, MIG}
  fig5       same experiment, average inference latency
  table1     quantified multiplexing-technique comparison
  coldstart  cold-start breakdown (function init / context / load)
  reconfig   re-partitioning downtime incl. weight-cache ablation
  rightsize  partition right-sizing study
  ablations  design-choice ablations (host gap, mem fraction,
             batching vs multiplexing, vGPU quantum)
  mixed      real-time ResNet next to a LLaMa service
  openloop   Poisson-arrival serving: stability per technique
  repart     phase-shifted tenants: online repartitioning controller
             vs every static Table 1 plan
  attrib     latency attribution: per-phase blame profiles for the
             Table 1 bursts plus the timeshare-vs-MPS trace diff
  scale      million-task throughput: sharded open-loop microtask run
             reporting events/sec, span counts, and retained-window
             memory (see -tasks/-shards)
  fleet      fleet-scale placement: fragmentation-aware MIG+MPS
             packing of 50+ apps over a 128-GPU mixed inventory under
             seeded churn, across a 0.5x/1.0x/1.5x offered-load grid
             (see -gpus80/-gpus40/-apps/-horizon/-arrival/-seed;
             purely virtual, byte-identical at any -parallel level)
  autoscale  SLO-driven autoscaling: hybrid block scaling + admission
             control against static provisioning baselines on the same
             diurnal, bursty traffic (see -gpus/-horizon/-seed; purely
             virtual, byte-identical at any -parallel level)
  all        everything, in paper order (repart, attrib, scale, fleet,
             and autoscale excluded: run them explicitly)

modes:
  tracediff  compare two attribution JSON artifacts (written with
             -attrib): paperbench tracediff -a A.json -b B.json
             [-o out.json] [-label-a NAME] [-label-b NAME]

flags:
  -completions N   completions for fig4/fig5/all (default 100)
  -csv DIR         also write fig2/fig4/fig5 series as CSV into DIR
  -parallel N      run up to N independent scenarios concurrently
                   (default: number of CPUs; output is byte-identical
                   at any setting)
  -trace FILE      rerun the fig4/fig5 grid and Table 1 bursts with
                   deep instrumentation and write a Perfetto-loadable
                   Chrome trace-event JSON file
  -metrics FILE    same instrumented rerun, exported as Prometheus
                   text exposition
  -chaos SPEC      run every experiment under seeded fault injection,
                   e.g. -chaos seed=7,rate=0.5 (keys: seed, rate,
                   pfail, kinds=worker+gpu+reconfig+endpoint+submit,
                   after, until, max, reconnect); same seed gives a
                   byte-identical run at any -parallel level
  -repart SPEC     controller spec for the repart artifact, e.g.
                   -repart policy=knee,interval=10s,delta=5 (keys:
                   policy, mode, interval, tolerance, cooldown, delta,
                   min, workers); unset keys take defaults, other
                   artifacts are unaffected
  -attrib FILE     rerun the instrumented grid and write the latency
                   attribution report (per-task phase breakdowns +
                   blame profiles) as JSON — the tracediff input
  -flame FILE      same rerun, exported as folded flamegraph stacks
                   (flamegraph.pl / speedscope)
  -slo SPEC        attach the SLO burn-rate monitor to instrumented
                   reruns: comma-separated app:latency:target[:window]
                   rules, e.g. -slo llama-complete:12s:0.9
  -alerts FILE     write the SLO alert stream (requires -slo). For the
                   scale, fleet, and autoscale artifacts it stands
                   alone: each cell's alert-rule history (resolved
                   incidents + still-active rules from the scenario's
                   default rule pack) renders to FILE, byte-identical
                   at any -parallel level
  -sample N        deterministically keep ~1/N of task trees in the
                   -trace output (metrics and attribution see
                   everything regardless)
  -serve ADDR      serve live observability over HTTP on ADDR while
                   the run executes (e.g. -serve 127.0.0.1:9190):
                   /metrics, /api/series, /spans, /progress, /healthz,
                   /debug/pprof. The scale artifact additionally gets
                   per-shard virtual-time series stores; the scale,
                   fleet, and autoscale artifacts get live span tails
                   per shard or cell. The process keeps
                   serving after the run completes — interrupt it to
                   exit. Without -serve nothing changes.

scale flags:
  -tasks N         total tasks (default 1000000)
  -shards N        independent platform shards (default 8)
  -workers N       CPU workers per shard (default 16)
  -window N        in-flight submissions per shard (default 64)
  -arrival R       per-shard offered load, tasks/sec (default 8000)
  -seed N          arrival/service RNG seed (default 1)

fleet flags (-arrival and -seed apply here too):
  -gpus80 N        A100-80GB parts in the inventory (default 64)
  -gpus40 N        A100-40GB parts in the inventory (default 64)
  -apps N          distinct applications churning (default 56)
  -horizon D       tenant-arrival horizon on the virtual clock
                   (default 10m)

autoscale flags (-horizon and -seed apply here too):
  -gpus N          provider pool size, one GPU per node (default 6)

Count, rate and duration flags must not be negative; 0 selects the
default.`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one paperbench invocation (args excludes the program
// name) and returns the process exit status: 0 on success, 1 when a
// run fails, 2 for a command-line error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, usageText)
		return 2
	}
	artifact := args[0]
	if artifact == "tracediff" {
		if err := cli.TraceDiff("paperbench", args[1:], stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "paperbench: tracediff:", err)
			if errors.Is(err, cli.ErrUsage) {
				return 2
			}
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet(artifact, flag.ContinueOnError)
	fs.SetOutput(stderr)
	completions := fs.Int("completions", 100, "completions for the fig4/fig5 experiment")
	csvDir := fs.String("csv", "", "also write figure CSV series into this directory")
	parallel := fs.Int("parallel", runtime.NumCPU(), "max independent scenarios run concurrently")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file from an instrumented rerun")
	metricsOut := fs.String("metrics", "", "write Prometheus text metrics from an instrumented rerun")
	chaos := fs.String("chaos", "", "seeded fault-injection spec, e.g. seed=7,rate=0.5")
	repartFlag := fs.String("repart", "", "repartitioning-controller spec, e.g. policy=knee,interval=10s")
	attribOut := fs.String("attrib", "", "write the latency-attribution JSON from an instrumented rerun")
	flameOut := fs.String("flame", "", "write folded flamegraph stacks from an instrumented rerun")
	sloSpec := fs.String("slo", "", "SLO burn-rate rules for instrumented reruns, e.g. app:12s:0.9")
	alertsOut := fs.String("alerts", "", "write the SLO alert stream (requires -slo)")
	sample := fs.Int("sample", 0, "keep ~1/N of task trees in the trace")
	tasks := fs.Int("tasks", 0, "scale: total tasks (default 1000000)")
	shards := fs.Int("shards", 0, "scale: independent platform shards (default 8)")
	workers := fs.Int("workers", 0, "scale: CPU workers per shard (default 16)")
	window := fs.Int("window", 0, "scale: in-flight submissions per shard (default 64)")
	arrival := fs.Float64("arrival", 0, "scale: per-shard offered load in tasks/sec (default 8000)")
	seed := fs.Int64("seed", 0, "scale/fleet: RNG seed (default 1)")
	gpus80 := fs.Int("gpus80", 0, "fleet: A100-80GB parts (default 64)")
	gpus40 := fs.Int("gpus40", 0, "fleet: A100-40GB parts (default 64)")
	apps := fs.Int("apps", 0, "fleet: distinct applications (default 56)")
	horizon := fs.Duration("horizon", 0, "fleet/autoscale: arrival horizon on the virtual clock")
	gpus := fs.Int("gpus", 0, "autoscale: provider pool size (default 6)")
	serveAddr := fs.String("serve", "", "serve live observability over HTTP on this address, e.g. 127.0.0.1:9190")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := cli.NonNegative(fs, "completions", "sample", "tasks", "shards", "workers",
		"window", "arrival", "gpus80", "gpus40", "apps", "horizon", "gpus"); err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 2
	}
	// scale/fleet/autoscale carry their own alert-rule packs, so -alerts
	// stands alone there; everywhere else it renders the SLO monitor's
	// stream and needs -slo rules to monitor.
	scenarioArtifact := artifact == "scale" || artifact == "fleet" || artifact == "autoscale"
	if *alertsOut != "" && *sloSpec == "" && !scenarioArtifact {
		fmt.Fprintln(stderr, "paperbench: -alerts requires -slo")
		return 2
	}
	if *sloSpec != "" {
		if _, err := analyze.ParseSLOSpec(*sloSpec); err != nil {
			fmt.Fprintln(stderr, "paperbench: -slo:", err)
			return 2
		}
	}
	var repartSpec repart.Spec
	if *repartFlag != "" {
		spec, err := repart.ParseSpec(*repartFlag)
		if err != nil {
			fmt.Fprintln(stderr, "paperbench: -repart:", err)
			return 2
		}
		repartSpec = spec
		core.SetRepart(&spec)
	}
	if *chaos != "" {
		spec, err := fault.ParseSpec(*chaos)
		if err != nil {
			fmt.Fprintln(stderr, "paperbench: -chaos:", err)
			return 2
		}
		core.SetChaos(&spec)
		fmt.Fprintf(stderr, "paperbench: chaos enabled (%s)\n", spec.String())
	}
	harness.SetParallelism(*parallel)
	// -serve: bind the live observability server before the run so its
	// endpoints answer while the scenarios execute.
	var srv *live.Server
	if *serveAddr != "" {
		srv = live.NewServer()
		bound, err := srv.Start(*serveAddr)
		if err != nil {
			fmt.Fprintln(stderr, "paperbench: -serve:", err)
			return 1
		}
		fmt.Fprintf(stderr, "paperbench: live observability on http://%s\n", bound)
		srv.Progress().SetPhase("running")
	}
	w := stdout
	var err error
	var scenarioAlerts io.Writer
	if *alertsOut != "" && scenarioArtifact {
		f, ferr := os.Create(*alertsOut)
		if ferr != nil {
			fmt.Fprintln(stderr, "paperbench: -alerts:", ferr)
			return 1
		}
		defer f.Close()
		scenarioAlerts = f
	}
	switch artifact {
	case "fig1":
		err = report.Fig1(w, []int{1, 8, 32})
	case "fig2":
		err = report.Fig2(w, nil)
	case "fig3":
		err = report.Fig3(w, moldesign.DefaultConfig())
	case "fig4", "fig5":
		err = report.Fig45(w, *completions)
	case "table1":
		err = report.Table1(w)
	case "coldstart":
		err = report.ColdStart(w)
	case "reconfig":
		err = report.Reconfig(w)
	case "rightsize":
		err = report.Rightsize(w)
	case "ablations":
		err = report.Ablations(w)
	case "mixed":
		err = report.MixedTenancy(w)
	case "openloop":
		err = report.OpenLoop(w)
	case "repart":
		err = report.Repart(w, repartSpec)
	case "attrib":
		err = report.Attribution(w, *completions)
	case "scale":
		opts := report.ScaleOptions{
			Tasks: *tasks, Shards: *shards, Workers: *workers, Window: *window,
			ArrivalRate: *arrival, Seed: *seed, SampleMod: *sample,
			TracePath: *traceOut, Alerts: scenarioAlerts,
		}
		if srv != nil {
			// Per-shard series stores, batched progress, and a live span
			// tail teed into each shard's sink.
			srv.Progress().SetShards(core.ScaleConfig{Tasks: *tasks, Shards: *shards}.WithDefaults().Shards)
			opts.Telemetry = &core.ScaleTelemetry{
				TSDB: &tsdb.Config{},
				OnShardDB: func(shard int, db *tsdb.DB) {
					srv.AttachDB(fmt.Sprintf("scale/shard%d", shard), db)
				},
				Progress: srv.Progress(),
			}
			opts.WrapSink = func(shard int, base obs.SpanSink) obs.SpanSink {
				return live.Tee(base, srv.Tail(fmt.Sprintf("scale/shard%d", shard), 0))
			}
		}
		err = report.Scale(w, opts)
	case "fleet":
		opts := report.FleetOptions{
			GPUs80: *gpus80, GPUs40: *gpus40, Apps: *apps,
			Duration: *horizon, ArrivalRate: *arrival, Seed: *seed,
			Alerts: scenarioAlerts,
		}
		if srv != nil {
			// One series store and one live span tail per load cell.
			opts.Telemetry = &report.FleetTelemetry{
				TSDB: &tsdb.Config{},
				OnCellDB: func(load string, db *tsdb.DB) {
					srv.AttachDB("fleet/"+load, db)
				},
			}
			opts.WrapSink = func(load string, base obs.SpanSink) obs.SpanSink {
				return live.Tee(base, srv.Tail("fleet/"+load, 0))
			}
		}
		err = report.Fleet(w, opts)
	case "autoscale":
		opts := report.AutoscaleOptions{
			GPUs: *gpus, Horizon: *horizon, Seed: *seed,
			Alerts: scenarioAlerts,
		}
		if srv != nil {
			// One series store and one live span tail per cell
			// (autoscaled and the static baselines).
			opts.Telemetry = &report.FleetTelemetry{
				TSDB: &tsdb.Config{},
				OnCellDB: func(cell string, db *tsdb.DB) {
					srv.AttachDB("autoscale/"+cell, db)
				},
			}
			opts.WrapSink = func(cell string, base obs.SpanSink) obs.SpanSink {
				return live.Tee(base, srv.Tail("autoscale/"+cell, 0))
			}
		}
		err = report.Autoscale(w, opts)
	case "all":
		err = report.All(w, *completions)
	default:
		fmt.Fprintln(stderr, usageText)
		return 2
	}
	if err == nil && *csvDir != "" {
		err = report.WriteFigureCSVs(*csvDir, *completions)
	}
	// The scale and fleet artifacts run their own span streams; the
	// generic instrumented rerun applies to everything else.
	if err == nil && artifact != "scale" && artifact != "fleet" && artifact != "autoscale" && (*traceOut != "" || *metricsOut != "") {
		err = writeObservability(*traceOut, *metricsOut, *completions, *sample)
	}
	if err == nil && artifact != "scale" && artifact != "fleet" && artifact != "autoscale" && (*attribOut != "" || *flameOut != "" || *alertsOut != "") {
		err = writeAttribution(*attribOut, *flameOut, *alertsOut, *sloSpec, *completions)
	}
	if err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}
	if srv != nil {
		// Keep serving the completed run's telemetry (CI and humans
		// curl the endpoints after the fact) until interrupted.
		srv.Progress().SetPhase("done")
		fmt.Fprintln(stderr, "paperbench: run complete; still serving — interrupt (Ctrl-C) to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		srv.Close()
	}
	return 0
}

// writeAttribution reruns the instrumented grid once and writes the
// requested attribution artifacts. Any path may be empty.
func writeAttribution(attribPath, flamePath, alertsPath, slo string, completions int) error {
	open := func(path string) (io.Writer, func(), error) {
		if path == "" {
			return nil, func() {}, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close() }, nil
	}
	attribW, closeA, err := open(attribPath)
	if err != nil {
		return err
	}
	defer closeA()
	flameW, closeF, err := open(flamePath)
	if err != nil {
		return err
	}
	defer closeF()
	alertsW, closeAl, err := open(alertsPath)
	if err != nil {
		return err
	}
	defer closeAl()
	return report.AttributionArtifacts(attribW, flameW, alertsW, completions, slo)
}

// writeObservability reruns the instrumented grid once and writes the
// requested artifacts. Either path may be empty.
func writeObservability(tracePath, metricsPath string, completions, sample int) error {
	var traceW, promW io.Writer
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		traceW = f
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		promW = f
	}
	return report.Observability(traceW, promW, completions, sample)
}
