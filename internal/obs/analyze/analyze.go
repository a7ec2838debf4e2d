// Package analyze is the deterministic post-run analysis engine over
// the obs span stream: critical-path latency attribution (every task's
// end-to-end time decomposed into named, non-overlapping phases that
// sum exactly to the span duration), folded-stack flamegraph export,
// SLO burn-rate monitoring on the virtual clock, and run-to-run trace
// diffing.
//
// Attribution is a priority sweep line. Each span kind that can
// explain a slice of a task's wall time contributes an interval with a
// fixed phase and priority; intervals are clipped to the task span,
// elementary segments between interval boundaries take the phase of
// the highest-priority covering interval, and uncovered segments are
// classified positionally (before the first evidence: submit; between
// evidence: retry/backoff; after the last: other). Executor queue time
// is critical-path-reattributed: while a task waits for a busy worker,
// the blocking run's own phases (kernel queueing, compute, transfers)
// claim that wait, so device-level contention surfaces in end-to-end
// blame instead of hiding behind a generic "queue" bucket. All
// arithmetic is integer virtual nanoseconds, so the per-task phase
// vector sums to the task duration exactly — the invariant the
// acceptance tests lock.
package analyze

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Phase names one slice of a task's end-to-end latency. The order is
// the canonical presentation order in every artifact.
type Phase int

const (
	// PhaseSubmit is time between task submission and the first
	// evidence of executor-side work (normally zero: the DFK hands the
	// task to the executor in the same virtual instant).
	PhaseSubmit Phase = iota
	// PhaseQueue is time spent in the executor submit queue that no
	// blocking activity explains (the scheduler simply had not placed
	// the task yet). Queue time spent waiting for a busy worker is
	// critical-path-reattributed to the blocking run's phases instead.
	PhaseQueue
	// PhaseColdStart is worker/context initialization the task had to
	// wait for: the executor init window overlapping the task's queue
	// wait, plus lazy GPU-context creation inside the invocation.
	PhaseColdStart
	// PhaseWeightLoad is host-to-device weight shard transfer time.
	PhaseWeightLoad
	// PhaseKernelQueue is device-side dispatch delay: kernels enqueued
	// but not yet running (time-share serialization, SM contention).
	PhaseKernelQueue
	// PhaseCompute is kernel execution on the SMs.
	PhaseCompute
	// PhasePCIe is non-weight host/device transfer time.
	PhasePCIe
	// PhaseHost is on-worker time not explained by the device: host
	// gaps between token launches, sampling, framework overhead.
	PhaseHost
	// PhaseRetryBackoff is time between attempts: backoff sleeps and
	// any other uncovered gap in the middle of the task.
	PhaseRetryBackoff
	// PhaseRestartStall is queue/backoff time that overlaps an
	// executor drain/restart window (e.g. a repartitioning
	// transition).
	PhaseRestartStall
	// PhaseOther is trailing unattributed time; zero in default runs.
	PhaseOther

	// NumPhases is the number of phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"submit", "queue", "cold_start", "weight_load", "kernel_queue",
	"compute", "pcie", "host", "retry_backoff", "restart_stall", "other",
}

// String returns the canonical snake_case phase name.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// PhaseByName resolves a canonical phase name; ok is false for an
// unknown name.
func PhaseByName(name string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), true
		}
	}
	return 0, false
}

// Breakdown is a per-phase duration vector in virtual time. The sum
// of all entries equals the task span duration exactly.
type Breakdown [NumPhases]time.Duration

// Total returns the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, v := range b {
		t += v
	}
	return t
}

// add accumulates another breakdown into b.
func (b *Breakdown) add(o *Breakdown) {
	for i, v := range o {
		b[i] += v
	}
}

// TaskAttribution is one task's decomposed end-to-end latency.
type TaskAttribution struct {
	Scope    string    `json:"scope"`
	Task     int       `json:"task"`
	App      string    `json:"app"`
	Executor string    `json:"executor,omitempty"`
	GPUPct   string    `json:"gpu_pct,omitempty"`
	Status   string    `json:"status"`
	StartNS  int64     `json:"start_ns"`
	EndNS    int64     `json:"end_ns"`
	Phases   Breakdown `json:"phases"`
}

// Duration returns the task's end-to-end virtual latency.
func (t *TaskAttribution) Duration() time.Duration {
	return time.Duration(t.EndNS - t.StartNS)
}

// Group is a blame profile: every task sharing a (scope, executor,
// app, SM-budget) key, with summed phase time and latency percentiles.
type Group struct {
	Scope    string    `json:"scope"`
	Executor string    `json:"executor,omitempty"`
	App      string    `json:"app"`
	GPUPct   string    `json:"gpu_pct,omitempty"`
	Tasks    int       `json:"tasks"`
	MeanNS   int64     `json:"mean_ns"`
	P50NS    int64     `json:"p50_ns"`
	P95NS    int64     `json:"p95_ns"`
	P99NS    int64     `json:"p99_ns"`
	Phases   Breakdown `json:"phases"` // summed over the group's tasks
}

// Report is the full attribution result for one (multi-collector) run.
type Report struct {
	Tasks  []TaskAttribution `json:"tasks"`
	Groups []Group           `json:"groups"`
}

// interval is one piece of phase evidence on the sweep line.
type interval struct {
	start, end time.Duration
	phase      Phase
	prio       int
}

// Interval priorities: when evidence overlaps, the most specific
// explanation wins. Compute beats its own queue delay, device
// activity beats the enclosing run span, context init beats the
// enclosing queue wait, and restart windows only claim time nothing
// else explains. The values are spaced by 10 so blocking-run
// reattribution (see blockedPrio) can slot between plain queue wait
// and the task's own evidence.
const (
	prioRestart   = 10 // executor drain/restart window
	prioQueue     = 20 // htex queue span
	prioInitWait  = 30 // worker init ∩ queue wait
	prioRun       = 40 // htex run span remainder -> host
	prioCtxInit   = 50 // lazy GPU-context creation in the invocation
	prioPCIe      = 60 // non-weight transfer
	prioWeights   = 70 // weight shard transfer
	prioKernQueue = 80 // kernel dispatch delay
	prioCompute   = 90 // kernel execution
)

// blockedPrio maps a blocking run's interval priority into the band
// (prioQueue, prioInitWait): a neighbour's phases outrank the bare
// queue span but never the waiting task's own evidence, and their
// relative order (compute over kernel queue over transfers over host)
// is preserved.
func blockedPrio(orig int) int { return prioQueue + orig/10 }

// analyzer holds one collector's span indexes during attribution.
type analyzer struct {
	children    map[obs.SpanID][]*obs.Span
	restarts    []*obs.Span
	inits       []*obs.Span
	runsByTrack map[string][]*obs.Span // htex run spans per worker track
	runIvs      map[obs.SpanID][]interval
}

func newAnalyzer() *analyzer {
	return &analyzer{
		children:    make(map[obs.SpanID][]*obs.Span),
		runsByTrack: make(map[string][]*obs.Span),
		runIvs:      make(map[obs.SpanID][]interval),
	}
}

// addEvidence indexes one span into the analyzer's evidence structures
// and reports whether it is a dfk task span (the attribution unit).
// The Streamer feeds spans as they end, then re-sorts the touched
// index lists by ID before attributing, so attribution always runs
// over ID-ordered evidence whatever the completion order.
func (a *analyzer) addEvidence(s *obs.Span) bool {
	if s.Parent != 0 {
		a.children[s.Parent] = append(a.children[s.Parent], s)
	}
	switch {
	case s.Cat == "dfk" && s.Name == "task":
		return true
	case s.Cat == "htex" && s.Name == "restart":
		a.restarts = append(a.restarts, s)
	case s.Cat == "htex" && s.Name == "init":
		a.inits = append(a.inits, s)
	case s.Cat == "htex" && s.Name == "run":
		a.runsByTrack[s.Track] = append(a.runsByTrack[s.Track], s)
	}
	return false
}

// runIntervals returns (memoized) the full evidence set of one run
// span: the run itself as host time plus its device-side children.
func (a *analyzer) runIntervals(run *obs.Span) []interval {
	if ivs, ok := a.runIvs[run.ID]; ok {
		return ivs
	}
	ivs := appendDeviceIntervals(
		[]interval{{run.Start, run.End, PhaseHost, prioRun}},
		a.children[run.ID])
	a.runIvs[run.ID] = ivs
	return ivs
}

func (a *analyzer) attributeTask(t *obs.Span) TaskAttribution {
	ta := TaskAttribution{
		App:      t.Attr("app"),
		Executor: t.Attr("executor"),
		Status:   t.Attr("status"),
		StartNS:  int64(t.Start),
		EndNS:    int64(t.End),
	}
	if id, err := strconv.Atoi(t.Attr("task")); err == nil {
		ta.Task = id
	}
	var ivs []interval

	// Executor drain/restart windows are the weakest evidence: they
	// only claim time no task-specific span explains (fail-fast retry
	// churn while the executor reconfigures).
	for _, r := range a.restarts {
		if ex := r.Attr("executor"); ex == "" || ta.Executor == "" || ex == ta.Executor {
			ivs = append(ivs, interval{r.Start, r.End, PhaseRestartStall, prioRestart})
		}
	}

	for _, ch := range a.children[t.ID] {
		switch {
		case ch.Cat == "htex" && ch.Name == "queue":
			ivs = append(ivs, interval{ch.Start, ch.End, PhaseQueue, prioQueue})
			w := ch.Attr("worker")
			if w == "" {
				continue
			}
			// Queue wait that overlaps the picked worker's init window
			// is a cold start, not scheduling delay.
			for _, in := range a.inits {
				if in.Track != w {
					continue
				}
				lo, hi := maxDur(ch.Start, in.Start), minDur(ch.End, in.End)
				if hi > lo {
					ivs = append(ivs, interval{lo, hi, PhaseColdStart, prioInitWait})
				}
			}
			// Critical-path reattribution: while the task waited for
			// worker w, w was serving other runs. That wait is caused
			// by — and decomposed along — the blocking runs' phases
			// (their kernel queueing, compute, transfers, host time).
			for _, run := range a.runsByTrack[w] {
				if run.Parent == t.ID || run.End <= ch.Start || run.Start >= ch.End {
					continue
				}
				for _, riv := range a.runIntervals(run) {
					lo, hi := maxDur(riv.start, ch.Start), minDur(riv.end, ch.End)
					if hi > lo {
						ivs = append(ivs, interval{lo, hi, riv.phase, blockedPrio(riv.prio)})
					}
				}
			}
		case ch.Cat == "htex" && ch.Name == "run":
			if ta.GPUPct == "" {
				ta.GPUPct = ch.Attr("gpu_pct")
			}
			ivs = append(ivs, a.runIntervals(ch)...)
		}
	}
	ta.Phases = decompose(t.Start, t.End, ivs)
	return ta
}

// appendDeviceIntervals adds the device-side evidence parented to one
// run span: GPU-context creation, transfers, and kernels.
func appendDeviceIntervals(ivs []interval, kids []*obs.Span) []interval {
	for _, k := range kids {
		switch {
		case k.Cat == "htex" && k.Name == "ctxinit":
			ivs = append(ivs, interval{k.Start, k.End, PhaseColdStart, prioCtxInit})
		case k.Cat == "simgpu" && k.Name == "xfer":
			ph, pr := PhasePCIe, prioPCIe
			if k.Attr("tag") == "weights" {
				ph, pr = PhaseWeightLoad, prioWeights
			}
			ivs = append(ivs, interval{k.Start, k.End, ph, pr})
		case k.Cat == "simgpu":
			// A kernel span: [start,end] is execution; the queue_ns
			// attribute recovers the dispatch delay before it.
			ivs = append(ivs, interval{k.Start, k.End, PhaseCompute, prioCompute})
			if q, err := strconv.ParseInt(k.Attr("queue_ns"), 10, 64); err == nil && q > 0 {
				ivs = append(ivs, interval{k.Start - time.Duration(q), k.Start, PhaseKernelQueue, prioKernQueue})
			}
		}
	}
	return ivs
}

// decompose runs the priority sweep line over [start, end].
func decompose(start, end time.Duration, ivs []interval) Breakdown {
	var b Breakdown
	if end <= start {
		return b
	}
	// Clip to the task window and drop empty intervals.
	clipped := ivs[:0]
	covLo, covHi := end, start
	for _, iv := range ivs {
		if iv.start < start {
			iv.start = start
		}
		if iv.end > end {
			iv.end = end
		}
		if iv.end <= iv.start {
			continue
		}
		if iv.start < covLo {
			covLo = iv.start
		}
		if iv.end > covHi {
			covHi = iv.end
		}
		clipped = append(clipped, iv)
	}
	if len(clipped) == 0 {
		b[PhaseSubmit] = end - start
		return b
	}
	// Elementary segments between sorted unique boundaries.
	bounds := make([]time.Duration, 0, 2*len(clipped)+2)
	bounds = append(bounds, start, end)
	for _, iv := range clipped {
		bounds = append(bounds, iv.start, iv.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:1]
	for _, t := range bounds[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	for i := 0; i+1 < len(uniq); i++ {
		a, z := uniq[i], uniq[i+1]
		best := -1
		var ph Phase
		for _, iv := range clipped {
			if iv.start <= a && a < iv.end && iv.prio > best {
				best, ph = iv.prio, iv.phase
			}
		}
		if best < 0 {
			// Uncovered gap: classify by position relative to the
			// evidence envelope.
			switch {
			case z <= covLo:
				ph = PhaseSubmit
			case a >= covHi:
				ph = PhaseOther
			default:
				ph = PhaseRetryBackoff
			}
		}
		b[ph] += z - a
	}
	return b
}

// buildGroups aggregates tasks into sorted blame profiles.
func (r *Report) buildGroups() {
	type key struct{ scope, executor, app, pct string }
	agg := make(map[key]*Group)
	samples := make(map[key]*metrics.Durations)
	var order []key
	for i := range r.Tasks {
		t := &r.Tasks[i]
		k := key{t.Scope, t.Executor, t.App, t.GPUPct}
		g, ok := agg[k]
		if !ok {
			g = &Group{Scope: k.scope, Executor: k.executor, App: k.app, GPUPct: k.pct}
			agg[k] = g
			samples[k] = &metrics.Durations{}
			order = append(order, k)
		}
		g.Tasks++
		g.Phases.add(&t.Phases)
		samples[k].Add(t.Duration())
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.scope != b.scope {
			return a.scope < b.scope
		}
		if a.executor != b.executor {
			return a.executor < b.executor
		}
		if a.app != b.app {
			return a.app < b.app
		}
		return a.pct < b.pct
	})
	r.Groups = make([]Group, 0, len(order))
	for _, k := range order {
		g := agg[k]
		d := samples[k]
		g.MeanNS = int64(d.Mean())
		g.P50NS = int64(d.Percentile(50))
		g.P95NS = int64(d.Percentile(95))
		g.P99NS = int64(d.Percentile(99))
		r.Groups = append(r.Groups, *g)
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
