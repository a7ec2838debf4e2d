// Command simbench is the repository's benchmark. It runs one
// of four simulator workloads (microtask, partition, fleet, autoscale)
// for a fixed host time, checks every batch's virtual result, and
// prints host-side end-to-end metrics (--trace 0) or a
// profile-attributed per-layer split (--trace 1). The last line of
// standard output is a JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	simbench --workload microtask --seed 1 --seconds 10 --trace 0
//	simbench --report --seeds 1,2 --seconds 10
//
// Each batch runs in a fresh child process of this binary (see
// runBatch); the parent process only schedules, checks and aggregates.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric with its unit and better direction.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the --trace 0 metrics: what a user running the
// simulator on a small host pays (host time, memory) and how far the
// model is from the paper.
var endToEnd = []metricDef{
	{"ops_per_cpu_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"model_err_pct", "%", "lower"},
}

// perLayer are the --trace 1 metrics. self_s is CPU seconds and
// alloc_mb is MB allocated per batch, charged by profile to the
// innermost repro/internal/<module> frame; counts are exact per batch.
var perLayer = func() []metricDef {
	var d []metricDef
	for _, l := range layers {
		d = append(d, metricDef{l + ".self_s", "s", "lower"})
	}
	d = append(d, metricDef{"runtime.gc_self_s", "s", "lower"}, metricDef{"runtime.sched_self_s", "s", "lower"})
	for _, l := range layers {
		d = append(d, metricDef{l + ".alloc_mb", "MB", "lower"})
	}
	return append(d,
		metricDef{"unattributed_frac", "fraction", "lower"},
		metricDef{"trace.overhead_frac", "fraction", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"devent.events", "count", "lower"},
		metricDef{"devent.events_per_op", "count", "lower"},
		metricDef{"devent.host_ns_per_event", "ns", "lower"},
		metricDef{"obs.spans_started", "count", "lower"},
		metricDef{"obs.spans_per_op", "count", "lower"},
		metricDef{"obs.retained_peak", "count", "lower"},
		metricDef{"faas.tasks_submitted", "count", "higher"},
		metricDef{"faas.tasks_completed", "count", "higher"},
		metricDef{"faas.tasks_shed", "count", "lower"},
		metricDef{"htex.cold_starts", "count", "lower"},
		metricDef{"simgpu.kernels_completed", "count", "higher"},
		metricDef{"simgpu.context_switches", "count", "lower"},
		metricDef{"simgpu.busy_frac", "fraction", "higher"},
		metricDef{"fleet.place_calls", "count", "higher"},
		metricDef{"fleet.placed_frac", "fraction", "higher"},
		metricDef{"fleet.rebalance_applied_frac", "fraction", "higher"},
		metricDef{"fleet.moved", "count", "lower"},
		metricDef{"tsdb.scrapes", "count", "higher"},
		metricDef{"tsdb.alert_transitions", "count", "lower"},
		metricDef{"autoscale.decisions", "count", "higher"},
		metricDef{"autoscale.shed_frac", "fraction", "lower"},
		metricDef{"harness.shard_wall_max_s", "s", "lower"},
		metricDef{"harness.shard_imbalance", "ratio", "lower"},
		metricDef{"harness.ops_per_wall_s", "1/s", "higher"},
	)
}()

// The first batch of a run is the digest reference and runs at harness
// parallelism refParallel; the timed batches run at timedParallel, with
// GOMAXPROCS equal to the parallelism (at most nproc). One thread keeps
// the Go scheduler's idle spinning and cross-thread wakeups, which vary
// with the host's load, out of the CPU time measured.
const refParallel, timedParallel = 2, 1

// runBudget bounds a whole run, batches past --seconds included, so
// that a hung or very slow batch fails the run well inside 180 s.
const runBudget = 150 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled batches")
	report := fs.Bool("report", false, "run every workload on each of -seeds, untraced and traced, and print the tables")
	seeds := fs.String("seeds", "1,2", "seeds for -report")
	batch := fs.Bool("batch", false, "run one batch in this process and print its record (used by the parent process)")
	parallel := fs.Int("parallel", timedParallel, "harness parallelism and GOMAXPROCS (at most nproc) of a -batch")
	traced := fs.Bool("traced", false, "profile a -batch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// On SIGINT or SIGTERM, kill the running batch process and wait for
	// it before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case *batch:
		rec, err := runBatch(*name, *seed, *parallel, *traced)
		if err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rec); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		return 0
	case *report:
		if err := runReport(ctx, stdout, *seeds, *seconds); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := setups[*name]; !ok {
		fmt.Fprintf(stderr, "simbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "simbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	res, err := runWorkload(ctx, stdout, *name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	line, err := json.Marshal(res.result())
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// spawnBatch runs one batch in a child process and decodes its record.
// The child is killed at the deadline or when ctx is done.
func spawnBatch(ctx context.Context, deadline time.Time, name string, seed int64, parallel int, traced bool) (*batchRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--batch", "--workload", name,
		"--seed", strconv.FormatInt(seed, 10), "--parallel", strconv.Itoa(parallel),
		"--traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s batch (parallel %d): %w", name, parallel, err)
	}
	var rec batchRecord
	if err := json.Unmarshal(out, &rec); err != nil {
		return nil, fmt.Errorf("%s batch record: %w", name, err)
	}
	return &rec, nil
}

// runResult is one simbench run: every batch record and its verdict.
type runResult struct {
	traced  bool
	ref     *batchRecord   // the parallelism-1 reference batch
	plain   []*batchRecord // untraced batches at full parallelism
	prof    []*batchRecord // traced batches at full parallelism
	failed  int
	attempt int
	metrics []metricValue
}

type metricValue struct {
	metricDef
	value, q1, q3 float64
	n             int
}

// runWorkload runs batches of one workload for the given host time and
// computes its metrics. The first batch runs at refParallel and is the
// digest reference; the rest run at timedParallel. With traced, every
// other batch is profiled.
func runWorkload(ctx context.Context, w io.Writer, name string, seed int64, seconds int, traced bool) (*runResult, error) {
	res := &runResult{traced: traced}
	fmt.Fprintf(w, "simbench %s seed=%d seconds=%d trace=%v parallel=%d (reference %d) nproc=%d %s\n",
		name, seed, seconds, traced, timedParallel, refParallel, runtime.NumCPU(), runtime.Version())
	start := time.Now()
	deadline, hardStop := start.Add(time.Duration(seconds)*time.Second), start.Add(runBudget)
	golden := ""
	if seed == defaultSeed {
		golden = goldenDigests[name]
	}
	check := func(rec *batchRecord) {
		res.attempt++
		var reasons []string
		if rec.Check != "" {
			reasons = append(reasons, rec.Check)
		}
		if res.ref != nil && rec.Digest != res.ref.Digest {
			reasons = append(reasons, fmt.Sprintf("digest differs from the parallelism-%d reference %s", refParallel, res.ref.Digest))
		}
		if golden != "" && rec.Digest != golden {
			reasons = append(reasons, "digest differs from the recorded default-seed digest "+golden)
		}
		if len(reasons) > 0 {
			res.failed++
			fmt.Fprintf(w, "FAILED batch %d: %s\n", res.attempt, strings.Join(reasons, "; "))
		}
	}

	ref, err := spawnBatch(ctx, hardStop, name, seed, refParallel, false)
	if err != nil {
		return nil, err
	}
	check(ref)
	res.ref = ref
	for _, s := range ref.Summary {
		fmt.Fprintln(w, "virtual:", s)
	}
	fmt.Fprintln(w, "digest: sha256:"+ref.Digest)

	for i := 0; time.Now().Before(deadline) || len(res.plain) < 2 || (traced && len(res.prof) < 2); i++ {
		if time.Now().After(hardStop) {
			return nil, fmt.Errorf("%s: %d untraced and %d traced batches within %v", name, len(res.plain), len(res.prof), runBudget)
		}
		prof := traced && i%2 == 1
		rec, err := spawnBatch(ctx, hardStop, name, seed, timedParallel, prof)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			res.attempt++
			res.failed++
			fmt.Fprintln(w, "FAILED batch:", err)
			if res.failed > 3 {
				return nil, errors.New("too many failed batches")
			}
			continue
		}
		check(rec)
		if prof {
			res.prof = append(res.prof, rec)
		} else {
			res.plain = append(res.plain, rec)
		}
	}

	if traced {
		res.metrics = layerMetrics(res)
	} else {
		modelErr := ref.ModelErrPct
		if modelErr == nil {
			v, err := paperModelErr()
			if err != nil {
				return nil, err
			}
			modelErr = &v
		}
		res.metrics = endToEndMetrics(res, *modelErr)
	}
	writeMetrics(w, res)
	return res, nil
}

// paperModelErr runs the seed-free Fig. 4/5 grid of the partition
// workload and returns its model_err_pct.
func paperModelErr() (float64, error) {
	w, err := setupPartition(defaultSeed, newTracer())
	if err != nil {
		return 0, err
	}
	p := w.(*partition)
	p.open = nil
	render, err := p.run(newTracer())
	if err != nil {
		return 0, err
	}
	return render().modelErrPct, nil
}

// opsPerCPUSecond is a batch's operations per host CPU second: the
// user and system time of its process across all threads, GC included.
// On a shared host whose vCPUs are descheduled for seconds at a time,
// CPU time repeats within a few percent where wall time swings by half.
func opsPerCPUSecond(r *batchRecord) float64 { return float64(r.Ops) / r.CPUS }

func collect(recs []*batchRecord, f func(*batchRecord) float64) []float64 {
	v := make([]float64, len(recs))
	for i, r := range recs {
		v[i] = f(r)
	}
	return v
}

func summarize(def metricDef, samples []float64) metricValue {
	q1, med, q3 := quartiles(samples)
	return metricValue{metricDef: def, value: med, q1: q1, q3: q3, n: len(samples)}
}

func endToEndMetrics(res *runResult, modelErr float64) []metricValue {
	plain := res.plain
	all := append([]*batchRecord{res.ref}, plain...)
	byName := map[string][]float64{
		"ops_per_cpu_s":      collect(plain, opsPerCPUSecond),
		"setup_s":            collect(all, func(r *batchRecord) float64 { return r.SetupS }),
		"allocs_per_op":      collect(plain, func(r *batchRecord) float64 { return float64(r.Mallocs) / float64(r.Ops) }),
		"alloc_bytes_per_op": collect(plain, func(r *batchRecord) float64 { return float64(r.AllocB) / float64(r.Ops) }),
		"peak_rss_mb":        collect(plain, func(r *batchRecord) float64 { return r.PeakRSSMB }),
		"model_err_pct":      {modelErr},
	}

	var out []metricValue
	for _, d := range endToEnd {
		out = append(out, summarize(d, byName[d.name]))
	}
	return out
}

func layerMetrics(res *runResult) []metricValue {
	plain, prof, ref := res.plain, res.prof, res.ref
	mean := func(f func(*batchRecord) float64) []float64 {
		var s float64
		for _, r := range prof {
			s += f(r)
		}
		return []float64{s / float64(len(prof))}
	}
	byName := map[string][]float64{}
	var cpuTotal, unattributed float64
	for _, r := range prof {
		for _, v := range r.CPU {
			cpuTotal += v
		}
		unattributed += r.CPU[layerUnattributed]
	}
	for _, l := range append(append([]string{}, layers...), layerGC, layerSched) {
		l := l
		name := l + ".self_s"
		if strings.HasPrefix(l, "runtime.") {
			name = l + "_self_s"
		}
		byName[name] = mean(func(r *batchRecord) float64 { return r.CPU[l] })
	}
	for _, l := range layers {
		l := l
		byName[l+".alloc_mb"] = mean(func(r *batchRecord) float64 { return r.AllocBytes[l] / mib })
	}
	byName["unattributed_frac"] = []float64{unattributed / cpuTotal}
	_, plainOps, _ := quartiles(collect(plain, opsPerCPUSecond))
	_, profOps, _ := quartiles(collect(prof, opsPerCPUSecond))
	byName["trace.overhead_frac"] = []float64{1 - profOps/plainOps}
	byName["harness.ops_per_wall_s"] = collect(plain, func(r *batchRecord) float64 { return float64(r.Ops) / r.WallS })
	byName["runtime.gc_cycles"] = collect(plain, func(r *batchRecord) float64 { return float64(r.GCCycles) })
	for k, v := range ref.Counts {
		byName[k] = []float64{v}
	}
	events := ref.Counts["devent.events"]
	byName["devent.events_per_op"] = []float64{frac(events, float64(ref.Ops))}
	byName["obs.spans_per_op"] = []float64{frac(ref.Counts["obs.spans_started"], float64(ref.Ops))}
	byName["devent.host_ns_per_event"] = collect(plain, func(r *batchRecord) float64 { return frac(r.CPUS*1e9, events) })
	var wallMax, imbalance []float64
	for _, r := range plain {
		if w := shardWalls(r.Spans); len(w) > 0 {
			_, med, _ := quartiles(w)
			wallMax = append(wallMax, w[len(w)-1])
			imbalance = append(imbalance, w[len(w)-1]/med)
		}
	}
	byName["harness.shard_wall_max_s"] = wallMax
	byName["harness.shard_imbalance"] = imbalance
	var out []metricValue
	for _, d := range perLayer {
		v := byName[d.name]
		if len(v) == 0 {
			v = []float64{0} // a count or shard metric the workload does not exercise
		}
		out = append(out, summarize(d, v))
	}
	return out
}

func writeMetrics(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "batches: attempted=%d failed=%d untraced=%d traced=%d\n",
		res.attempt, res.failed, len(res.plain), len(res.prof))
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-30s %-10s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range res.metrics {
		fmt.Fprintf(bw, "%-30s %-10s %14.6g %14.6g %14.6g %4d\n", m.name, m.unit, m.value, m.q1, m.q3, m.n)
	}
	bw.Flush()
	if res.traced {
		samples := 0
		for _, r := range res.prof {
			samples += r.Samples
		}
		fmt.Fprintf(w, "cpu profile samples: %d over %d traced batches\n", samples, len(res.prof))
		writeSpans(w, res.ref.Spans)
	}
}

// writeSpans prints the reference batch's spans around calls into the
// program, totalled by name: where setup and the timed call spent their
// wall time.
func writeSpans(w io.Writer, spans []span) {
	total := map[string]float64{}
	count := map[string]int{}
	var names []string
	for _, s := range spans {
		key := s.Parent + " > " + s.Name
		if _, ok := total[key]; !ok {
			names = append(names, key)
		}
		total[key] += s.End - s.Start
		count[key]++
	}
	sort.Strings(names)
	fmt.Fprintln(w, "call spans (reference batch, wall seconds):")
	for _, n := range names {
		fmt.Fprintf(w, "  %-50s %4d %12.6f\n", strings.TrimPrefix(n, " > "), count[n], total[n])
	}
}

// result is the final JSON line.
func (r *runResult) result() map[string]any {
	m := map[string]any{}
	for _, v := range r.metrics {
		m[v.name] = map[string]any{"value": v.value, "unit": v.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempt,
		"failed":    r.failed,
		"metrics":   m,
	}
}

// quartiles returns the first quartile, median and third quartile of
// v with the method of Python's statistics.quantiles(v, n=4).
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// runReport runs every workload on each seed, untraced then traced,
// and prints the end-to-end and per-layer tables.
func runReport(ctx context.Context, w io.Writer, seedList string, seconds int) error {
	var seeds []int64
	for _, f := range strings.Split(seedList, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", f)
		}
		seeds = append(seeds, s)
	}
	type cell struct{ e2e, layer *runResult }
	cells := map[string]map[int64]cell{}
	for _, name := range workloadNames {
		cells[name] = map[int64]cell{}
		for _, seed := range seeds {
			e, err := runWorkload(ctx, io.Discard, name, seed, seconds, false)
			if err != nil {
				return err
			}
			l, err := runWorkload(ctx, io.Discard, name, seed, seconds, true)
			if err != nil {
				return err
			}
			cells[name][seed] = cell{e, l}
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "host: nproc=%d parallel=%d (reference %d) %s, %d s per run\n\n", runtime.NumCPU(), timedParallel, refParallel, runtime.Version(), seconds)
	fmt.Fprintln(bw, "end-to-end (median [q1, q3] over n batches)")
	for _, name := range workloadNames {
		for _, seed := range seeds {
			c := cells[name][seed]
			fmt.Fprintf(bw, "%s seed=%d: attempted=%d failed=%d failed_frac=%g digest=%s\n", name, seed,
				c.e2e.attempt+c.layer.attempt, c.e2e.failed+c.layer.failed,
				float64(c.e2e.failed+c.layer.failed)/float64(c.e2e.attempt+c.layer.attempt), c.e2e.ref.Digest)
			for _, m := range c.e2e.metrics {
				fmt.Fprintf(bw, "  %-20s %-10s %12.6g [%.6g, %.6g] n=%d\n", m.name, m.unit, m.value, m.q1, m.q3, m.n)
			}
		}
	}
	fmt.Fprintln(bw, "\nper-layer (traced batches)")
	fmt.Fprintf(bw, "%-30s", "metric")
	for _, name := range workloadNames {
		for _, seed := range seeds {
			fmt.Fprintf(bw, " %14s", fmt.Sprintf("%s/%d", name, seed))
		}
	}
	fmt.Fprintln(bw)
	for i, d := range perLayer {
		fmt.Fprintf(bw, "%-30s", d.name)
		for _, name := range workloadNames {
			for _, seed := range seeds {
				fmt.Fprintf(bw, " %14.6g", cells[name][seed].layer.metrics[i].value)
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
