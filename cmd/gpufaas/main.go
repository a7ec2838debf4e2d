// Command gpufaas runs ad-hoc scenarios on the partitioning-enabled
// FaaS platform: LLaMa multiplexing with a chosen technique, the
// molecular-design campaign, or an SM sweep.
//
// Usage:
//
//	gpufaas multiplex -mode mps -procs 4 -completions 100
//	gpufaas moldesign -rounds 4 -batch 16
//	gpufaas sweep -percents 5,10,20,50,100
//	gpufaas repart -spec policy=knee,interval=10s
//	gpufaas fleet -gpus80 2 -gpus40 1 -demands "llama:30:20;resnet:10:1"
//	gpufaas fleet -gpus80 64 -gpus40 64 -apps 56 -horizon 10m
//	gpufaas autoscale -gpus 6 -horizon 2h -serve :9190
//	gpufaas tracediff -a a.json -b b.json
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/moldesign"
	"repro/internal/obs/live"
	"repro/internal/obs/tsdb"
	"repro/internal/repart"
	"repro/internal/report"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
)

var commands = []cli.Command{
	{Name: "multiplex", Summary: "LLaMa services sharing one A100 under one technique", Run: runMultiplex},
	{Name: "moldesign", Summary: "the molecular-design campaign and its phase timeline", Run: runMolDesign},
	{Name: "sweep", Summary: "LLaMa-2 latency vs MPS percentage", Run: runSweep},
	{Name: "pack", Summary: "plan MPS and MIG partitions for tenant demands", Run: runPack},
	{Name: "fleet", Summary: "fleet placement: one-shot -demands packing or the seeded churn scenario", Run: runFleet},
	{Name: "autoscale", Summary: "one serving cell under diurnal traffic, autoscaled or -static N", Run: runAutoscaleCell},
	{Name: "repart", Summary: "phase-shifted tenants under the online controller or a static plan", Run: runRepart},
	{Name: "tracediff", Summary: "compare two attribution JSON artifacts written with -attrib", Run: cli.TraceDiff},
}

func main() {
	os.Exit(cli.Main("gpufaas", commands, os.Args[1:], os.Stdout, os.Stderr))
}

func runMultiplex(env *cli.Env, args []string) error {
	fs := env.Flags("multiplex")
	mode := fs.String("mode", "mps", "timeshare | mps-default | mps | mig | vgpu")
	procs := fs.Int("procs", 4, "concurrent model processes (1-4)")
	completions := fs.Int("completions", 100, "total completions")
	tokens := fs.Int("tokens", 20, "output tokens per completion")
	chaos := fs.String("chaos", "", "seeded fault-injection spec, e.g. seed=7,rate=0.5")
	serveAddr := fs.String("serve", "", "serve live observability over HTTP on this address, e.g. 127.0.0.1:9190")
	x := cli.AddRunExports(fs)
	fs.IntVar(&x.Sample, "sample", 0, "keep ~1/N of task trees in the trace")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.NonNegative(fs, "procs", "completions", "tokens", "sample"); err != nil {
		return err
	}
	if err := x.Validate(); err != nil {
		return err
	}
	cfg := core.MultiplexConfig{
		Mode:         core.Mode(*mode),
		Processes:    *procs,
		Completions:  *completions,
		OutputTokens: *tokens,
		Observe:      x.Observe(),
		SLO:          x.SLO,
	}
	if *chaos != "" {
		spec, err := fault.ParseSpec(*chaos)
		if err != nil {
			return cli.Usagef("-chaos: %v", err)
		}
		cfg.Chaos = &spec
	}
	return env.Serve(*serveAddr, func(srv *live.Server) error {
		if srv != nil {
			cfg.TSDB = &tsdb.Config{}
		}
		hook, err := x.Start(srv)
		if err != nil {
			return err
		}
		cfg.OnPlatform = hook
		r, err := core.RunMultiplex(cfg)
		if err != nil {
			return x.Abort(err)
		}
		if err := x.Finish(r.Obs, ""); err != nil {
			return err
		}
		w := env.Stdout
		fmt.Fprintf(w, "mode=%s procs=%d completions=%d\n", r.Mode, r.Processes, r.Completions)
		fmt.Fprintf(w, "  preload (cold start, excluded): %.2fs\n", r.PreloadTime.Seconds())
		fmt.Fprintf(w, "  makespan:      %.2fs\n", r.Makespan.Seconds())
		fmt.Fprintf(w, "  throughput:    %.3f completions/s\n", r.Throughput)
		fmt.Fprintf(w, "  latency mean:  %.2fs  p50 %.2fs  p95 %.2fs  max %.2fs\n",
			r.Latencies.Mean().Seconds(), r.Latencies.Percentile(50).Seconds(),
			r.Latencies.Percentile(95).Seconds(), r.Latencies.Max().Seconds())
		fmt.Fprintf(w, "  utilization:   %.0f%%\n", r.Utilization*100)
		if r.Checker != nil {
			fmt.Fprintf(w, "  chaos:         %d faults injected, %d completions failed terminally (outcomes %v)\n",
				r.Faults, r.Failed, r.Checker.Outcomes())
			if err := r.Checker.Err(); err != nil {
				return fmt.Errorf("task-state invariant violated: %w", err)
			}
		}
		return nil
	})
}

// molDesignFlags maps the moldesign.Config fields the moldesign
// command sets to their flags.
var molDesignFlags = map[string]string{
	"Rounds": "rounds", "BatchSize": "batch", "InitialPool": "initial", "CandidatePool": "pool",
}

func runMolDesign(env *cli.Env, args []string) error {
	fs := env.Flags("moldesign")
	rounds := fs.Int("rounds", 4, "active-learning rounds")
	batch := fs.Int("batch", 16, "simulations per round")
	initial := fs.Int("initial", 32, "initial random simulations")
	pool := fs.Int("pool", 4000, "candidates scored per round")
	seed := fs.Int64("seed", 1, "campaign seed")
	gantt := fs.Bool("gantt", true, "print the phase timeline")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.NonNegative(fs, "rounds", "batch", "initial", "pool"); err != nil {
		return err
	}
	cfg := moldesign.DefaultConfig()
	cfg.Rounds = *rounds
	cfg.BatchSize = *batch
	cfg.InitialPool = *initial
	cfg.CandidatePool = *pool
	cfg.Seed = *seed
	if err := cfg.Validate(); err != nil {
		var ce *moldesign.ConfigError
		if errors.As(err, &ce) && molDesignFlags[ce.Field] != "" {
			return cli.Usagef("-%s %s", molDesignFlags[ce.Field], ce.Msg)
		}
		return err
	}
	res, err := core.RunMolDesign(cfg)
	if err != nil {
		return err
	}
	w := env.Stdout
	rep := res.Report
	fmt.Fprintf(w, "campaign finished in %.1fs (virtual): dataset=%d best IP=%.3f (initial %.3f, pool mean %.3f)\n",
		res.Makespan.Seconds(), rep.Dataset, rep.BestIP, rep.InitialBestIP, rep.PoolMeanIP)
	for i, m := range rep.RoundBatchMeanIP {
		fmt.Fprintf(w, "  round %d selected-batch mean IP: %.3f\n", i+1, m)
	}
	fmt.Fprintf(w, "GPU busy %.0f%% with %d idle gaps\n", res.GPUBusyFraction*100, res.GPUIdleGaps)
	if *gantt {
		fmt.Fprint(w, res.Trace.Gantt(100))
	}
	return nil
}

func runSweep(env *cli.Env, args []string) error {
	fs := env.Flags("sweep")
	percentsArg := fs.String("percents", "5,10,15,19,25,37,50,75,100", "MPS percentages")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	var percents []int
	for _, p := range strings.Split(*percentsArg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return cli.Usagef("bad percentage %q", p)
		}
		percents = append(percents, v)
	}
	return report.Fig2(env.Stdout, percents)
}

// runRepart runs the phase-shifted two-tenant scenario once, under a
// static plan (-static) or under the online repartitioning controller
// (-spec SPEC, or the controller defaults when both flags are unset).
func runRepart(env *cli.Env, args []string) error {
	fs := env.Flags("repart")
	specArg := fs.String("spec", "", "controller spec, e.g. policy=knee,interval=10s,delta=5")
	static := fs.String("static", "", "run a static baseline instead: timeshare | mps-default | mps | mig | vgpu")
	serveAddr := fs.String("serve", "", "serve live observability over HTTP on this address, e.g. 127.0.0.1:9190")
	x := cli.AddRunExports(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *specArg != "" && *static != "" {
		return cli.Usagef("-spec and -static are mutually exclusive")
	}
	if err := x.Validate(); err != nil {
		return err
	}
	cfg := core.PhaseShiftConfig{Observe: x.Observe(), SLO: x.SLO}
	if *static != "" {
		cfg.Mode = core.Mode(*static)
	} else {
		spec, err := repart.ParseSpec(*specArg)
		if err != nil {
			return cli.Usagef("-spec: %v", err)
		}
		cfg.Repart = &spec
	}
	return env.Serve(*serveAddr, func(srv *live.Server) error {
		if srv != nil {
			cfg.TSDB = &tsdb.Config{}
		}
		hook, err := x.Start(srv)
		if err != nil {
			return err
		}
		cfg.OnPlatform = hook
		r, err := core.RunPhaseShift(cfg)
		if err != nil {
			return x.Abort(err)
		}
		plan, scope := "static "+string(r.Mode), "repart/static-"+string(r.Mode)
		if r.Repart {
			plan, scope = "online controller", "repart/controller"
		}
		if err := x.Finish(r.Obs, scope); err != nil {
			return err
		}
		w := env.Stdout
		fmt.Fprintf(w, "plan=%s\n", plan)
		fmt.Fprintf(w, "  preload (cold start, excluded): %.2fs\n", r.PreloadTime.Seconds())
		fmt.Fprintf(w, "  makespan:      %.2fs\n", r.Makespan.Seconds())
		fmt.Fprintf(w, "  latency mean:  %.2fs  p50 %.2fs  p95 %.2fs  max %.2fs\n",
			r.Latencies.Mean().Seconds(), r.Latencies.Percentile(50).Seconds(),
			r.Latencies.Percentile(95).Seconds(), r.Latencies.Max().Seconds())
		fmt.Fprintf(w, "  transitions:   %d\n", r.Transitions)
		fmt.Fprintf(w, "  weight cache:  %d hits, %d misses\n", r.CacheHits, r.CacheMisses)
		return nil
	})
}

// runPack plans a partitioning for a set of tenant demands:
//
//	gpufaas pack -spec a100-80gb -tenant llama:21:18 -tenant resnet:10:1
//
// Each -tenant is name:SMs:memGB. Both an MPS percentage plan and a
// placement-validated MIG layout are printed.
func runPack(env *cli.Env, args []string) error {
	fs := env.Flags("pack")
	specName := fs.String("spec", "a100-80gb", "device spec (a100-40gb | a100-80gb)")
	var tenants tenantFlags
	fs.Var(&tenants, "tenant", "tenant demand as name:SMs:memGB (repeatable)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if len(tenants) == 0 {
		return cli.Usagef("pack needs at least one -tenant name:SMs:memGB")
	}
	var spec simgpu.DeviceSpec
	switch *specName {
	case "a100-40gb":
		spec = simgpu.A100SXM440GB()
	case "a100-80gb":
		spec = simgpu.A100SXM480GB()
	default:
		return cli.Usagef("unknown spec %q", *specName)
	}
	w := env.Stdout
	if mps, err := rightsize.PackMPS(spec, tenants); err != nil {
		fmt.Fprintf(w, "MPS plan: infeasible: %v\n", err)
	} else {
		fmt.Fprintf(w, "MPS plan (total %d%%, oversubscribed=%v):\n", mps.TotalPercent, mps.Oversubscribed)
		for _, a := range mps.Assignments {
			fmt.Fprintf(w, "  %-12s CUDA_MPS_ACTIVE_THREAD_PERCENTAGE=%d\n", a.Tenant, a.Percent)
		}
	}
	if mig, err := rightsize.PackMIG(spec, tenants); err != nil {
		fmt.Fprintf(w, "MIG plan: infeasible: %v\n", err)
	} else {
		fmt.Fprintf(w, "MIG plan (layout %v):\n", mig.Layout)
		for _, a := range mig.Assignments {
			fmt.Fprintf(w, "  %-12s %s\n", a.Tenant, a.Profile)
		}
	}
	return nil
}

// writeAlerts renders a scenario's end-of-run alert-rule history to
// path (nothing when path is empty).
func writeAlerts(path string, db *tsdb.DB) error {
	var out cli.Outputs
	var err error
	if w := out.Create(path); w != nil {
		err = tsdb.WriteAlertHistory(w, "", db)
	}
	return out.Close(err)
}

// runFleet drives the fleet-layer packer directly. With -demands it
// packs a fixed tenant set onto the inventory and prints each granted
// segment plus the per-GPU fragmentation; without it, it runs the
// seeded churn scenario and prints the admission/fragmentation
// summary.
//
//	gpufaas fleet -gpus80 2 -gpus40 1 -demands "llama:30:20;resnet:10:1"
//	gpufaas fleet -gpus80 64 -gpus40 64 -apps 56 -horizon 10m -serve :9190
func runFleet(env *cli.Env, args []string) error {
	fs := env.Flags("fleet")
	gpus80 := fs.Int("gpus80", 0, "A100-80GB parts (default: 2 with -demands, 64 for the scenario)")
	gpus40 := fs.Int("gpus40", 0, "A100-40GB parts (default: 1 with -demands, 64 for the scenario)")
	demands := fs.String("demands", "", `pack a fixed tenant set: "name:SMs[:memGB];..." (e.g. "llama:30:20;resnet:10:1")`)
	apps := fs.Int("apps", 0, "scenario: distinct applications (default 56)")
	horizon := fs.Duration("horizon", 0, "scenario: arrival horizon on the virtual clock (default 10m)")
	rate := fs.Float64("rate", 0, "scenario: tenant arrivals per second (default 2.0)")
	seed := fs.Int64("seed", 0, "scenario: churn RNG seed (default 1)")
	serveAddr := fs.String("serve", "", "scenario: serve live observability over HTTP on this address")
	alertsOut := fs.String("alerts", "", "scenario: write the alert-rule history (fleet pack) to this file")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.NonNegative(fs, "gpus80", "gpus40", "apps", "horizon", "rate"); err != nil {
		return err
	}
	if *demands != "" {
		return runFleetPack(env.Stdout, *gpus80, *gpus40, *demands)
	}
	cfg := core.FleetConfig{
		GPUs80: *gpus80, GPUs40: *gpus40, Apps: *apps,
		Duration: *horizon, ArrivalRate: *rate, Seed: *seed,
	}
	return env.Serve(*serveAddr, func(srv *live.Server) error {
		// The alert engine lives on the series store, so -alerts turns
		// one on even without -serve.
		if srv != nil || *alertsOut != "" {
			cfg.TSDB = &tsdb.Config{}
		}
		cfg.OnDB, cfg.OnCollector = srv.Hooks("fleet")
		r, err := core.RunFleet(cfg)
		if err != nil {
			return err
		}
		if err := writeAlerts(*alertsOut, r.TSDB); err != nil {
			return err
		}
		if srv != nil {
			r.Obs.Close() // flush parked daemon spans into the live tail
		}
		w := env.Stdout
		fmt.Fprintf(w, "fleet: %d GPUs, %d apps, horizon %s, seed %d\n",
			r.GPUs, r.Apps, cfg.WithDefaults().Duration, cfg.WithDefaults().Seed)
		fmt.Fprintf(w, "  arrivals:      %d placed, %d rejected of %d (attainment %.1f%%)\n",
			r.Placed, r.Rejected, r.Arrivals, r.Attainment*100)
		for _, cs := range r.Classes {
			att := 100.0
			if cs.Arrivals > 0 {
				att = 100 * float64(cs.Placed) / float64(cs.Arrivals)
			}
			fmt.Fprintf(w, "    %-9s %d/%d (%.1f%%)\n", cs.Class+":", cs.Placed, cs.Arrivals, att)
		}
		fmt.Fprintf(w, "  peak tenants:  %d\n", r.PeakTenants)
		if len(r.FragSeries) > 0 {
			var peak float64
			for _, p := range r.FragSeries {
				peak = max(peak, p.Frag)
			}
			last := r.FragSeries[len(r.FragSeries)-1]
			fmt.Fprintf(w, "  fragmentation: peak %.4f, at horizon %.4f (%d MIG / %d MPS / %d empty GPUs)\n",
				peak, last.Frag, last.MIG, last.MPS, last.Empty)
		}
		fmt.Fprintf(w, "  rebalances:    %d (%d applied, %d tenants moved, max gap %.4f, %d scratch-infeasible)\n",
			r.Rebalances, r.RebalancesApplied, r.Moved, r.MaxGap, r.ScratchInfeasible)
		fmt.Fprintf(w, "  drain:         %d evicted, final frag %.4f, makespan %s\n",
			r.Evicted, r.FinalFrag, r.Makespan.Round(time.Millisecond))
		return nil
	})
}

// runAutoscaleCell runs one serving cell of the SLO-driven autoscaling
// scenario: diurnal, bursty traffic against either the hybrid
// autoscaler (default) or a static block count (-static N), printing
// demand, latency, economics, and scaling activity.
//
//	gpufaas autoscale -gpus 6 -horizon 2h -serve :9190
//	gpufaas autoscale -gpus 6 -static 6 -horizon 2h
func runAutoscaleCell(env *cli.Env, args []string) error {
	fs := env.Flags("autoscale")
	gpus := fs.Int("gpus", 0, "provider pool size (default 6)")
	static := fs.Int("static", 0, "provision this many blocks statically instead of autoscaling")
	horizon := fs.Duration("horizon", 0, "traffic horizon on the virtual clock (default 2h)")
	hold := fs.Duration("hold", 0, "keep the cell open this long after drain (observes scale-to-zero)")
	seed := fs.Int64("seed", 0, "traffic and shed RNG seed (default 1)")
	serveAddr := fs.String("serve", "", "serve live observability over HTTP on this address")
	alertsOut := fs.String("alerts", "", "write the alert-rule history (autoscale pack + SLO burn) to this file")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.NonNegative(fs, "gpus", "static", "horizon", "hold"); err != nil {
		return err
	}
	cfg := core.AutoscaleConfig{
		GPUs: *gpus, StaticBlocks: *static, Seed: *seed, DrainHold: *hold,
	}.WithDefaults()
	if *horizon > 0 {
		cfg.Traffic.Horizon = *horizon
	}
	return env.Serve(*serveAddr, func(srv *live.Server) error {
		if srv != nil {
			cfg.TSDB = &tsdb.Config{}
		}
		cfg.OnDB, cfg.OnCollector = srv.Hooks("autoscale")
		r, err := core.RunAutoscale(cfg)
		if err != nil {
			return err
		}
		// The autoscale cell always carries a series store, so the alert
		// history is available with or without -serve.
		if err := writeAlerts(*alertsOut, r.TSDB); err != nil {
			return err
		}
		if srv != nil {
			r.Obs.Close() // flush parked daemon spans into the live tail
		}
		mode := fmt.Sprintf("static %d blocks", cfg.StaticBlocks)
		if r.Autoscaled {
			mode = fmt.Sprintf("autoscaled %d..%d blocks", cfg.Policy.MinBlocks, r.Blocks)
		}
		w := env.Stdout
		fmt.Fprintf(w, "autoscale: %d GPUs, %s, horizon %s, seed %d\n",
			cfg.GPUs, mode, cfg.Traffic.Horizon, cfg.Seed)
		fmt.Fprintf(w, "  traffic:     %d users, peak %.2f req/s, period %s, %d bursts\n",
			cfg.Traffic.Users, float64(cfg.Traffic.Users)*cfg.Traffic.PerUserRate,
			cfg.Traffic.Period, len(cfg.Traffic.Bursts))
		fmt.Fprintf(w, "  demand:      %d arrivals, %d completed, %d good, %d shed, %d failed\n",
			r.Arrivals, r.Completed, r.Good, r.Shed, r.Failed)
		fmt.Fprintf(w, "  slo:         %s@%.2f -> attainment %.1f%%, shed rate %.1f%%\n",
			cfg.SLOLatency, cfg.SLOTarget, r.Attainment*100, r.ShedRate*100)
		fmt.Fprintf(w, "  latency:     p50 %s, p95 %s, p99 %s (served only)\n",
			r.Latencies.Percentile(50).Round(time.Millisecond),
			r.Latencies.Percentile(95).Round(time.Millisecond),
			r.Latencies.Percentile(99).Round(time.Millisecond))
		fmt.Fprintf(w, "  economics:   %.0f GPU-seconds, %.2f per good task, %d cold starts (%.1f tasks each)\n",
			r.GPUSeconds, r.GPUSecondsPerGood, r.ColdStarts, r.TasksPerColdStart)
		fmt.Fprintf(w, "  scaling:     %d out, %d in, peak %d blocks, final %d\n",
			r.ScaleOuts, r.ScaleIns, r.PeakBlocks, r.FinalBlocks)
		fmt.Fprintf(w, "  makespan:    %s (%d events)\n", r.Makespan.Round(time.Millisecond), r.Events)
		return nil
	})
}

// runFleetPack is the -demands mode: a one-shot greedy pack with the
// granted segments and the fragmentation they leave behind.
func runFleetPack(w io.Writer, n80, n40 int, spec string) error {
	if n80 <= 0 && n40 <= 0 {
		n80, n40 = 2, 1
	}
	ds, err := fleet.ParseDemands(spec)
	if err != nil {
		return cli.Usagef("-demands: %v", err)
	}
	var specs []simgpu.DeviceSpec
	for i := 0; i < n80; i++ {
		specs = append(specs, simgpu.A100SXM480GB())
	}
	for i := 0; i < n40; i++ {
		specs = append(specs, simgpu.A100SXM440GB())
	}
	cl, err := fleet.New(fleet.Config{Inventory: fleet.NewInventory(specs...)})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "inventory: %d GPUs (%dx80GB + %dx40GB)\n", n80+n40, n80, n40)
	for _, d := range ds {
		p, err := cl.Place(d)
		if err != nil {
			fmt.Fprintf(w, "  %-12s unplaceable: %v\n", d.Tenant, err)
			continue
		}
		seg := p.Segment
		switch seg.Kind {
		case fleet.SegMIG:
			fmt.Fprintf(w, "  %-12s %s  %s@slice%d  %d%% (%d SMs, %.1f GB)\n",
				d.Tenant, seg.GPU, seg.Profile, seg.Start, seg.Percent, seg.SMs, float64(seg.MemBytes)/1e9)
		default:
			fmt.Fprintf(w, "  %-12s %s  whole-GPU MPS  %d%% (%d SMs, %.1f GB)\n",
				d.Tenant, seg.GPU, seg.Percent, seg.SMs, float64(seg.MemBytes)/1e9)
		}
	}
	rep := cl.Fragmentation()
	for _, g := range rep.PerGPU {
		if g.Mode == "empty" {
			continue
		}
		fmt.Fprintf(w, "fragmentation: %-6s %-5s %.4f\n", g.ID, g.Mode, g.Frag)
	}
	fmt.Fprintf(w, "fragmentation: fleet mean %.4f over %d GPUs\n", rep.Fleet, len(rep.PerGPU))
	return nil
}

// tenantFlags parses repeated -tenant name:SMs:memGB flags.
type tenantFlags []rightsize.TenantDemand

func (t *tenantFlags) String() string { return fmt.Sprint([]rightsize.TenantDemand(*t)) }

func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want name:SMs:memGB, got %q", v)
	}
	sms, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("bad SMs in %q", v)
	}
	gb, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return fmt.Errorf("bad memGB in %q", v)
	}
	*t = append(*t, rightsize.TenantDemand{
		Name:     parts[0],
		SMs:      sms,
		MemBytes: int64(gb * 1e9),
	})
	return nil
}
