package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simgpu"
)

// Workload sizes. A batch takes from a quarter of a second (partition)
// to about five seconds (fleet) of host time on one core: long enough
// that process start and setup stay small beside the timed call.
const (
	microTasks  = 40000
	microShards = 4
	// openRequests and openRate shape the seeded open-loop cells of the
	// partition workload: Poisson chat arrivals at RunOpenLoop's default
	// load, five times its default length so that the seed drives about
	// a third of the batch.
	openRequests = 300
	openRate     = 0.4
	// fleetGPUs80/fleetGPUs40 are core.FleetConfig's default
	// inventory, 128 GPUs.
	fleetGPUs80, fleetGPUs40 = 64, 64
)

// defaultSeed is the seed whose virtual digests are recorded below.
const defaultSeed = 1

// goldenDigests holds the SHA-256 of each workload's virtual result at
// the default seed. A change meant only to make the simulator faster
// must leave these bit-identical; a deliberate model change updates
// them together with the virtual summary it prints.
var goldenDigests = map[string]string{
	"microtask": "6617c621b07b8239e556f85e1a8c892317c9126aa6a32987e918b5f1a6d14c71",
	"partition": "e89db13360e0ee18d4ec06296227bb899a519f81f84950f0f3959fc6cd8e45e3",
	"fleet":     "3025a32d20537741b48157873e75854c5742f94872df524100d329ed5feb14c1",
	"autoscale": "8a87e46e4b7569180cc4ab84de5e5fe9d5f6a063082693325fa3ecfe14c58147",
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"microtask", "partition", "fleet", "autoscale"}

// setups builds each workload's inputs from the seed, through the
// public constructors the scenario itself uses; setup_s times this.
var setups = map[string]func(seed int64, tr *tracer) (workload, error){
	"microtask": setupMicrotask,
	"partition": setupPartition,
	"fleet":     setupFleet,
	"autoscale": setupAutoscale,
}

// A workload is one closed batch of simulator work prepared from the
// seed. run executes it to completion; the caller times the call. The
// returned function renders the virtual outcome afterwards, outside the
// timed and allocation-counted window.
type workload interface {
	run(tr *tracer) (func() *outcome, error)
}

// outcome is a batch's virtual result and what the oracle checks.
type outcome struct {
	// ops counts the workload's operations resolved in the batch: the
	// unit of ops_per_s.
	ops int
	// parts are canonical renderings of the virtual result; the digest
	// hashes them in order.
	parts []string
	// summary is the human-readable virtual result printed beside the
	// digest, so a model change shows where it moved.
	summary []string
	// check is the first broken invariant (nil when all hold).
	check error
	// counts are exact per-batch layer counts, keyed by metric name.
	counts map[string]float64
	// modelErrPct is the paper-accuracy figure (partition only, else NaN).
	modelErrPct float64
}

func (o *outcome) digest() string {
	h := sha256.New()
	for _, p := range o.parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// discardSink turns on streaming span collection without keeping the
// spans, as paperbench's -stream mode does.
type discardSink struct{}

func (discardSink) EmitSpan(*obs.Span) {}

// counterSum totals every series of a counter family.
func counterSum(reg *obs.Registry, names ...string) float64 {
	var s float64
	reg.VisitSeries(func(name string, _ obs.Kind, inst any) {
		c, ok := inst.(*obs.Counter)
		if !ok {
			return
		}
		for _, n := range names {
			if n == name {
				s += c.Value()
			}
		}
	})
	return s
}

func renderSamples(d *metrics.Durations) string {
	var b strings.Builder
	for _, v := range d.Samples() {
		fmt.Fprintf(&b, "%d,", int64(v))
	}
	return b.String()
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ---- microtask --------------------------------------------------------

type microtask struct{ cfg core.ScaleConfig }

func setupMicrotask(seed int64, tr *tracer) (workload, error) {
	cfg := core.ScaleConfig{Tasks: microTasks, Shards: microShards, Seed: seed}.WithDefaults()
	cfg.Sinks = make([]obs.SpanSink, cfg.Shards)
	for i := range cfg.Sinks {
		cfg.Sinks[i] = discardSink{}
	}
	// Each shard assembles this platform again inside the run; building
	// it here prices platform assembly into setup_s and fails a bad
	// configuration before the timed call.
	for i := 0; i < cfg.Shards; i++ {
		end := tr.begin("core.NewPlatform", "setup")
		_, err := core.NewPlatform(core.Options{
			DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()},
			CPUWorkers:  cfg.Workers,
			NoHistory:   true,
		})
		end()
		if err != nil {
			return nil, err
		}
	}
	return &microtask{cfg: cfg}, nil
}

// shardProgress receives the scale scenario's wall-side callbacks:
// shard spans for the harness metrics and the completed-task count for
// the oracle. Harness workers call it concurrently.
type shardProgress struct {
	tr   *tracer
	done atomic.Int64
	mu   sync.Mutex
	ends map[int]func()
}

func (p *shardProgress) ShardStarted(shard int) {
	end := p.tr.begin(fmt.Sprintf("shard%d", shard), "core.RunMillionTask")
	p.mu.Lock()
	p.ends[shard] = end
	p.mu.Unlock()
}

func (p *shardProgress) TasksDone(n int) { p.done.Add(int64(n)) }

func (p *shardProgress) ShardFinished(shard int) {
	p.mu.Lock()
	end := p.ends[shard]
	p.mu.Unlock()
	end()
}

func (m *microtask) run(tr *tracer) (func() *outcome, error) {
	prog := &shardProgress{tr: tr, ends: map[int]func(){}}
	cfg := m.cfg
	cfg.Telemetry = &core.ScaleTelemetry{Progress: prog}
	end := tr.begin("core.RunMillionTask", "batch")
	res, err := core.RunMillionTask(cfg)
	end()
	if err != nil {
		return nil, err
	}
	return func() *outcome { return m.outcome(res, int(prog.done.Load())) }, nil
}

func (m *microtask) outcome(res *core.ScaleResult, completed int) *outcome {
	cfg := m.cfg
	submitted := 0
	for _, s := range res.Shards {
		submitted += s.Tasks
	}
	samples := res.Latencies.N()
	o := &outcome{ops: completed, modelErrPct: math.NaN()}
	if submitted != cfg.Tasks || completed != submitted || samples != submitted {
		o.check = fmt.Errorf("microtask: tasks=%d submitted=%d completed=%d latency samples=%d",
			cfg.Tasks, submitted, completed, samples)
	}
	head := *res
	head.Latencies = nil
	o.parts = []string{fmt.Sprintf("%+v", head), renderSamples(res.Latencies)}
	o.summary = []string{
		fmt.Sprintf("tasks=%d shards=%d events=%d spans=%d retained_high_water=%d makespan=%v",
			res.Tasks, len(res.Shards), res.Events, res.Spans, res.MaxRetained, res.Makespan),
		fmt.Sprintf("latency p50=%v p99=%v max=%v",
			res.Latencies.Percentile(50), res.Latencies.Percentile(99), res.Latencies.Max()),
	}
	o.counts = map[string]float64{
		"devent.events":        float64(res.Events),
		"obs.spans_started":    float64(res.Spans),
		"obs.retained_peak":    float64(res.MaxRetained),
		"faas.tasks_submitted": float64(submitted),
		"faas.tasks_completed": float64(completed),
	}
	return o
}

// ---- partition --------------------------------------------------------

// partitionModes are the techniques of the paper's Figs. 4 and 5.
var partitionModes = []core.Mode{core.ModeTimeshare, core.ModeMPS, core.ModeMIG}

// The paper's headline claims for 4-way MPS on one A100 (§5.2).
const (
	paperCompletionCut = 0.60 // completion time, 4-way MPS vs 1 process
	paperThroughputX   = 2.5  // throughput, 4-way MPS vs 1 process
	paperLatencyCut    = 0.44 // latency, 4-way MPS vs 4-way timeshare
)

type partition struct {
	grid []core.MultiplexConfig
	open []core.OpenLoopConfig
}

func setupPartition(seed int64, tr *tracer) (workload, error) {
	end := tr.begin("llm.LLaMa27B", "setup")
	model := llm.LLaMa27B()
	end()
	end = tr.begin("core.NewPlatform", "setup")
	_, err := core.NewPlatform(core.Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	end()
	if err != nil {
		return nil, err
	}
	w := &partition{}
	for _, m := range partitionModes {
		for n := 1; n <= 4; n++ {
			if m == core.ModeMIG {
				if _, err := core.MIGLayoutFor(n); err != nil {
					return nil, err
				}
			}
			w.grid = append(w.grid, core.MultiplexConfig{Mode: m, Processes: n, Completions: 100, Model: model})
		}
	}
	for _, m := range partitionModes {
		w.open = append(w.open, core.OpenLoopConfig{
			Mode: m, Processes: 4, ArrivalRate: openRate, Requests: openRequests, Seed: seed,
		})
	}
	return w, nil
}

type partitionCell struct {
	mux     *core.MultiplexResult
	open    *core.OpenLoopResult
	pl      *core.Platform
	kernels int
}

func (w *partition) run(tr *tracer) (func() *outcome, error) {
	cells, err := harness.Map(len(w.grid)+len(w.open), func(i int) (partitionCell, error) {
		if i >= len(w.grid) {
			cfg := w.open[i-len(w.grid)]
			end := tr.begin(fmt.Sprintf("core.RunOpenLoop %s/p%d", cfg.Mode, cfg.Processes), "batch")
			r, err := core.RunOpenLoop(cfg)
			end()
			return partitionCell{open: r}, err
		}
		cfg := w.grid[i]
		var pl *core.Platform
		kernels := 0
		cfg.OnPlatform = func(p *core.Platform) {
			pl = p
			p.Devices[0].OnKernelDone(func(simgpu.KernelRecord) { kernels++ })
		}
		end := tr.begin(fmt.Sprintf("core.RunMultiplex %s/p%d", cfg.Mode, cfg.Processes), "batch")
		r, err := core.RunMultiplex(cfg)
		end()
		if err != nil {
			return partitionCell{}, err
		}
		return partitionCell{mux: r, pl: pl, kernels: kernels}, nil
	})
	if err != nil {
		return nil, err
	}
	return func() *outcome { return w.outcome(cells) }, nil
}

func (w *partition) outcome(cells []partitionCell) *outcome {
	o := &outcome{counts: map[string]float64{}}
	var grid, open strings.Builder
	byKey := map[string]*core.MultiplexResult{}
	var busy float64
	for i, c := range cells {
		if c.mux != nil {
			r := c.mux
			byKey[fmt.Sprintf("%s/%d", r.Mode, r.Processes)] = r
			if n := r.Latencies.N(); o.check == nil && (r.Failed != 0 || n != r.Completions) {
				o.check = fmt.Errorf("partition: %s/p%d completions=%d failed=%d latency samples=%d",
					r.Mode, r.Processes, r.Completions, r.Failed, n)
			}
			o.ops += r.Latencies.N()
			head := *r
			head.Latencies, head.Obs, head.Checker = nil, nil, nil
			fmt.Fprintf(&grid, "%+v|%s\n", head, renderSamples(r.Latencies))
			reg := c.pl.Obs.Metrics()
			o.counts["devent.events"] += float64(c.pl.Env.EventsDispatched())
			o.counts["obs.spans_started"] += float64(c.pl.Obs.Len())
			o.counts["faas.tasks_submitted"] += counterSum(reg, "faas_tasks_submitted_total")
			o.counts["faas.tasks_completed"] += counterSum(reg, "faas_tasks_completed_total")
			o.counts["simgpu.kernels_completed"] += float64(c.kernels)
			o.counts["simgpu.context_switches"] += float64(r.ContextSwitches)
			busy += r.Utilization
			continue
		}
		r, cfg := c.open, w.open[i-len(w.grid)]
		if n := r.Latencies.N(); o.check == nil && n != cfg.Requests {
			o.check = fmt.Errorf("partition: open-loop %s requests=%d latency samples=%d", r.Mode, cfg.Requests, n)
		}
		o.ops += r.Latencies.N()
		head := *r
		head.Latencies = nil
		fmt.Fprintf(&open, "%+v|%s\n", head, renderSamples(r.Latencies))
		o.summary = append(o.summary, fmt.Sprintf("open-loop %s/p%d: capacity=%.4f req/s stable=%v p50=%v makespan=%v",
			r.Mode, r.Processes, r.ServiceCapacity, r.Stable, r.Latencies.Percentile(50), r.Makespan))
	}
	o.counts["simgpu.busy_frac"] = busy / float64(len(w.grid))
	o.parts = []string{grid.String(), open.String()}

	single, mps4, ts4 := byKey["timeshare/1"], byKey["mps/4"], byKey["timeshare/4"]
	completionCut := 1 - mps4.Makespan.Seconds()/single.Makespan.Seconds()
	throughputX := mps4.Throughput / single.Throughput
	latencyCut := 1 - mps4.MeanLatency().Seconds()/ts4.MeanLatency().Seconds()
	o.modelErrPct = 100 * math.Max(math.Abs(completionCut-paperCompletionCut)/paperCompletionCut,
		math.Max(math.Abs(throughputX-paperThroughputX)/paperThroughputX,
			math.Abs(latencyCut-paperLatencyCut)/paperLatencyCut))
	o.summary = append([]string{
		fmt.Sprintf("fig4 makespan: timeshare/1=%v mps/4=%v mig/4=%v", single.Makespan, mps4.Makespan, byKey["mig/4"].Makespan),
		fmt.Sprintf("headline (paper -> model): completion -60%% -> -%.2f%%, throughput 2.5x -> %.3fx, latency -44%% -> -%.2f%%; model_err_pct=%.4f",
			100*completionCut, throughputX, 100*latencyCut, o.modelErrPct),
	}, o.summary...)
	return o
}

// ---- fleet ------------------------------------------------------------

// fleetScenarios is the number of churn scenarios in a fleet batch.
// One scenario's packing work per arrival swings by tens of percent
// from seed to seed (how much its rebalances move); a batch of several
// keeps the per-arrival cost a property of the packer, not of the seed.
const fleetScenarios = 16

type fleetWorkload struct{ cfgs []core.FleetConfig }

func setupFleet(seed int64, tr *tracer) (workload, error) {
	w := &fleetWorkload{}
	for i := 0; i < fleetScenarios; i++ {
		sub := seed*fleetScenarios + int64(i) + 1
		w.cfgs = append(w.cfgs, core.FleetConfig{GPUs80: fleetGPUs80, GPUs40: fleetGPUs40, Seed: sub}.WithDefaults())
	}
	// The inventory every scenario builds: 80 GB and 40 GB parts
	// interleaved.
	specs := make([]simgpu.DeviceSpec, 0, fleetGPUs80+fleetGPUs40)
	for i := 0; len(specs) < fleetGPUs80+fleetGPUs40; i++ {
		if i < fleetGPUs80 {
			specs = append(specs, simgpu.A100SXM480GB())
		}
		if i < fleetGPUs40 {
			specs = append(specs, simgpu.A100SXM440GB())
		}
	}
	end := tr.begin("fleet.New", "setup")
	_, err := fleet.New(fleet.Config{Inventory: fleet.NewInventory(specs...)})
	end()
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *fleetWorkload) run(tr *tracer) (func() *outcome, error) {
	results, err := harness.Map(len(w.cfgs), func(i int) (*core.FleetResult, error) {
		end := tr.begin(fmt.Sprintf("core.RunFleet seed=%d", w.cfgs[i].Seed), "batch")
		defer end()
		return core.RunFleet(w.cfgs[i])
	})
	if err != nil {
		return nil, err
	}
	return func() *outcome { return fleetOutcome(results) }, nil
}

func fleetOutcome(results []*core.FleetResult) *outcome {
	o := &outcome{modelErrPct: math.NaN(), counts: map[string]float64{}}
	var arrivals, placed, rebalances, applied float64
	for _, res := range results {
		o.ops += res.Placed + res.Rejected
		if o.check == nil && (res.Placed+res.Rejected != res.Arrivals || res.FinalTenants != 0 || res.FinalFrag != 0) {
			o.check = fmt.Errorf("fleet: arrivals=%d placed=%d rejected=%d final_tenants=%d final_frag=%g",
				res.Arrivals, res.Placed, res.Rejected, res.FinalTenants, res.FinalFrag)
		}
		head := *res
		head.Obs, head.TSDB = nil, nil
		o.parts = append(o.parts, fmt.Sprintf("%+v", head))
		o.summary = append(o.summary, fmt.Sprintf(
			"arrivals=%d placed=%d rejected=%d rebalances=%d applied=%d moved=%d peak_tenants=%d final_tenants=%d final_frag=%.4f makespan=%v events=%d",
			res.Arrivals, res.Placed, res.Rejected, res.Rebalances, res.RebalancesApplied, res.Moved,
			res.PeakTenants, res.FinalTenants, res.FinalFrag, res.Makespan, res.Events))
		arrivals += float64(res.Arrivals)
		placed += float64(res.Placed)
		rebalances += float64(res.Rebalances)
		applied += float64(res.RebalancesApplied)
		o.counts["devent.events"] += float64(res.Events)
		o.counts["obs.spans_started"] += float64(res.Obs.Len())
		o.counts["obs.retained_peak"] = math.Max(o.counts["obs.retained_peak"], float64(res.Obs.MaxRetained()))
		o.counts["fleet.place_calls"] += counterSum(res.Obs.Metrics(), "fleet_place_total")
		o.counts["fleet.moved"] += float64(res.Moved)
	}
	o.counts["fleet.placed_frac"] = frac(placed, arrivals)
	o.counts["fleet.rebalance_applied_frac"] = frac(applied, rebalances)
	return o
}

// ---- autoscale --------------------------------------------------------

type autoscaleWorkload struct {
	cfg core.AutoscaleConfig
	// arrivals is the request count the seeded traffic generates,
	// replayed in setup; the oracle holds the run to it.
	arrivals int
}

func setupAutoscale(seed int64, tr *tracer) (workload, error) {
	cfg := core.AutoscaleConfig{Seed: seed}.WithDefaults()
	end := tr.begin("core.NewTraffic", "setup")
	traffic, err := core.NewTraffic(cfg.Traffic)
	if err != nil {
		end()
		return nil, err
	}
	n := 0
	for {
		if _, ok := traffic.Next(); !ok {
			break
		}
		n++
	}
	end()
	cfg.OnCollector = func(c *obs.Collector) { c.SetSink(discardSink{}) }
	return &autoscaleWorkload{cfg: cfg, arrivals: n}, nil
}

func (w *autoscaleWorkload) run(tr *tracer) (func() *outcome, error) {
	end := tr.begin("core.RunAutoscale", "batch")
	res, err := core.RunAutoscale(w.cfg)
	end()
	if err != nil {
		return nil, err
	}
	return func() *outcome { return w.outcome(res) }, nil
}

func (w *autoscaleWorkload) outcome(res *core.AutoscaleResult) *outcome {
	resolved := res.Completed + res.Shed + res.Failed
	o := &outcome{ops: resolved, modelErrPct: math.NaN()}
	if resolved != res.Arrivals || res.Arrivals != w.arrivals {
		o.check = fmt.Errorf("autoscale: generated=%d arrivals=%d completed=%d shed=%d failed=%d",
			w.arrivals, res.Arrivals, res.Completed, res.Shed, res.Failed)
	}
	head := *res
	head.Obs, head.TSDB, head.Latencies = nil, nil, nil
	o.parts = []string{fmt.Sprintf("%+v", head), renderSamples(res.Latencies)}
	o.summary = []string{
		fmt.Sprintf("arrivals=%d completed=%d good=%d shed=%d failed=%d attainment=%.4f",
			res.Arrivals, res.Completed, res.Good, res.Shed, res.Failed, res.Attainment),
		fmt.Sprintf("gpu_seconds=%.1f cold_starts=%d scale_outs=%d scale_ins=%d peak_blocks=%d makespan=%v events=%d",
			res.GPUSeconds, res.ColdStarts, res.ScaleOuts, res.ScaleIns, res.PeakBlocks, res.Makespan, res.Events),
	}
	reg := res.Obs.Metrics()
	o.counts = map[string]float64{
		"devent.events":          float64(res.Events),
		"obs.spans_started":      float64(res.Obs.Len()),
		"obs.retained_peak":      float64(res.Obs.MaxRetained()),
		"faas.tasks_submitted":   counterSum(reg, "faas_tasks_submitted_total"),
		"faas.tasks_completed":   counterSum(reg, "faas_tasks_completed_total"),
		"faas.tasks_shed":        counterSum(reg, "faas_tasks_shed_total"),
		"htex.cold_starts":       counterSum(reg, "htex_cold_starts_total"),
		"tsdb.scrapes":           float64(res.TSDB.Scrapes()),
		"tsdb.alert_transitions": counterSum(reg, "alert_pending_total", "alert_firing_total", "alert_resolved_total"),
		"autoscale.decisions":    counterSum(reg, "autoscale_decisions_total"),
		"autoscale.shed_frac":    res.ShedRate,
	}
	return o
}

// ---- spans around calls into the program -----------------------------

// span is one wall-clock interval around a call simbench makes into
// the program: a constructor, a core.Run* call or a scale shard.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans in memory, relative to its creation.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it. Safe for
// concurrent use.
func (t *tracer) begin(name, parent string) func() {
	start := time.Since(t.t0).Seconds()
	return func() {
		end := time.Since(t.t0).Seconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: end})
		t.mu.Unlock()
	}
}

// shardWalls returns the wall seconds of each scale shard span.
func shardWalls(spans []span) []float64 {
	var w []float64
	for _, s := range spans {
		if s.Parent == "core.RunMillionTask" {
			w = append(w, s.End-s.Start)
		}
	}
	sort.Float64s(w)
	return w
}
