package analyze

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// sweepEvery is how many arrived spans separate evidence-eviction
// sweeps. Sweeps are O(retained evidence), so amortized cost per span
// is constant.
const sweepEvery = 4096

// Streamer attributes one collector's tasks: it consumes the span
// stream through OnSpanStart/OnSpanEnd hooks and attributes each task
// as soon as its evidence is complete, evicting evidence that can no
// longer overlap any open task window. Memory is bounded by
// concurrently open tasks plus the eviction window instead of by run
// length, and the Report depends only on the recorded spans, never on
// the order they completed in:
//
//   - evidence lists are re-sorted by span ID before each attribution,
//     so intervals are assembled in ID order (interval order decides
//     equal-priority ties);
//   - tasks ending inside an open executor restart window are deferred
//     until the restart span is recorded, so retroactive restart
//     evidence is never missed;
//   - attributed tasks are sorted by task-span ID in Finish, giving
//     emission-order output regardless of completion order.
//
// Build one Streamer per collector before the run, then merge them in
// collector order with BuildReport. Spans still open when Finish runs
// are clamped to the current virtual time and attributed like ended
// ones. SLO alert spans are cached (they are not evicted — alert
// streams are tiny) for WriteAlerts.
type Streamer struct {
	c  *obs.Collector
	a  *analyzer
	id int // collector position, for deterministic merge order

	tasks    []TaskAttribution
	taskIDs  []obs.SpanID // parallel to tasks: sort key for Finish
	deferred []*obs.Span  // ended tasks waiting for an open restart

	openTasks    map[obs.SpanID]time.Duration // open task span -> start
	openSpans    map[obs.SpanID]struct{}      // all open spans (children-index guard)
	openRestarts map[obs.SpanID]obs.Span      // open restart spans, as started

	alerts []obs.Span

	added    int
	lastEnd  time.Duration
	finished bool
}

// NewStreamer attaches a streamer to the collector's span hooks. A nil
// collector yields a nil (no-op) streamer. Attach before the run
// starts; evidence already flushed by a sink cannot be recovered.
func NewStreamer(c *obs.Collector) *Streamer {
	if c == nil {
		return nil
	}
	st := &Streamer{
		c:            c,
		a:            newAnalyzer(),
		openTasks:    make(map[obs.SpanID]time.Duration),
		openSpans:    make(map[obs.SpanID]struct{}),
		openRestarts: make(map[obs.SpanID]obs.Span),
	}
	c.OnSpanStart(st.onStart)
	c.OnSpanEnd(st.onEnd)
	return st
}

func (st *Streamer) onStart(s obs.Span) {
	if st.finished {
		return
	}
	st.openSpans[s.ID] = struct{}{}
	switch {
	case s.Cat == "dfk" && s.Name == "task":
		st.openTasks[s.ID] = s.Start
	case s.Cat == "htex" && s.Name == "restart":
		st.openRestarts[s.ID] = s
	}
}

func (st *Streamer) onEnd(s obs.Span) {
	if st.finished {
		return
	}
	delete(st.openSpans, s.ID)
	if s.End > st.lastEnd {
		st.lastEnd = s.End
	}
	if s.Cat == "slo" && s.Name == "burn" {
		st.alerts = append(st.alerts, s)
		return
	}
	// Only spans that can be attribution evidence are copied to the
	// heap; everything else (fault injections, repart decisions, daemon
	// lifecycles) passes through untouched.
	if !evidenceSpan(&s) {
		return
	}
	cp := new(obs.Span)
	*cp = s
	isTask := st.a.addEvidence(cp)
	switch {
	case isTask:
		delete(st.openTasks, s.ID)
		if st.restartOpenFor(cp.Attr("executor")) {
			st.deferred = append(st.deferred, cp)
		} else {
			st.attribute(cp)
		}
	case s.Cat == "htex" && s.Name == "restart":
		delete(st.openRestarts, s.ID)
		st.drainDeferred()
	}
	st.added++
	if st.added >= sweepEvery {
		st.sweep()
	}
}

// evidenceSpan reports whether attribution indexes this span: a task,
// restart, init, or run span, or any child span (device activity under
// runs, queue waits under tasks).
func evidenceSpan(s *obs.Span) bool {
	if s.Parent != 0 {
		return true
	}
	if s.Cat == "dfk" && s.Name == "task" {
		return true
	}
	return s.Cat == "htex" && (s.Name == "restart" || s.Name == "init" || s.Name == "run")
}

// restartOpenFor reports whether any open restart window matches the
// executor filter attributeTask applies to restart evidence.
func (st *Streamer) restartOpenFor(executor string) bool {
	for _, r := range st.openRestarts {
		if ex := r.Attr("executor"); ex == "" || executor == "" || ex == executor {
			return true
		}
	}
	return false
}

// drainDeferred attributes deferred tasks whose matching restart
// windows have all closed (their restart spans are now evidence).
func (st *Streamer) drainDeferred() {
	kept := st.deferred[:0]
	for _, t := range st.deferred {
		if st.restartOpenFor(t.Attr("executor")) {
			kept = append(kept, t)
		} else {
			st.attribute(t)
		}
	}
	st.deferred = kept
}

func (st *Streamer) attribute(t *obs.Span) {
	st.sortEvidence(t)
	ta := st.a.attributeTask(t)
	st.tasks = append(st.tasks, ta)
	st.taskIDs = append(st.taskIDs, t.ID)
	delete(st.a.children, t.ID)
}

// sortEvidence restores span-ID order on every index list this task's
// attribution will read. Arrival order is end-time order, but
// intervals must be assembled in ID order — interval order decides
// equal-priority ties — so the lists are sorted before attributeTask
// runs. Run-interval memos are computed on first use, so a run's child
// list is sorted before it is memoized.
func (st *Streamer) sortEvidence(t *obs.Span) {
	a := st.a
	sortSpansByID(a.restarts)
	sortSpansByID(a.inits)
	kids := a.children[t.ID]
	sortSpansByID(kids)
	for _, ch := range kids {
		switch {
		case ch.Cat == "htex" && ch.Name == "queue":
			w := ch.Attr("worker")
			if w == "" {
				continue
			}
			runs := a.runsByTrack[w]
			sortSpansByID(runs)
			for _, run := range runs {
				if _, done := a.runIvs[run.ID]; !done {
					sortSpansByID(a.children[run.ID])
				}
			}
		case ch.Cat == "htex" && ch.Name == "run":
			if _, done := a.runIvs[ch.ID]; !done {
				sortSpansByID(a.children[ch.ID])
			}
		}
	}
}

func sortSpansByID(spans []*obs.Span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
}

// threshold is the eviction horizon: evidence ending before it cannot
// overlap any open or deferred task window (queue waits and blocking
// runs relevant to a task all end at or after the task starts), nor
// any future task (whose window starts later still).
func (st *Streamer) threshold() time.Duration {
	thr := st.lastEnd
	for _, start := range st.openTasks {
		if start < thr {
			thr = start
		}
	}
	for _, t := range st.deferred {
		if t.Start < thr {
			thr = t.Start
		}
	}
	return thr
}

// sweep evicts evidence older than the threshold: restart/init/run
// spans whose windows ended before any live task started, the interval
// memos of evicted runs, and children lists whose parent is neither a
// live (open or deferred) span nor a retained run.
func (st *Streamer) sweep() {
	st.added = 0
	thr := st.threshold()
	st.a.restarts = filterSpans(st.a.restarts, thr)
	st.a.inits = filterSpans(st.a.inits, thr)
	retained := make(map[obs.SpanID]struct{})
	for track, runs := range st.a.runsByTrack {
		kept := filterSpans(runs, thr)
		if len(kept) == 0 {
			delete(st.a.runsByTrack, track)
		} else {
			st.a.runsByTrack[track] = kept
		}
		for _, r := range kept {
			retained[r.ID] = struct{}{}
		}
	}
	for id := range st.a.runIvs {
		if _, ok := retained[id]; !ok {
			delete(st.a.runIvs, id)
		}
	}
	deferredSet := make(map[obs.SpanID]struct{}, len(st.deferred))
	for _, t := range st.deferred {
		deferredSet[t.ID] = struct{}{}
	}
	for pid := range st.a.children {
		if _, ok := st.openSpans[pid]; ok {
			continue
		}
		if _, ok := deferredSet[pid]; ok {
			continue
		}
		if _, ok := retained[pid]; ok {
			continue
		}
		delete(st.a.children, pid)
	}
}

func filterSpans(spans []*obs.Span, thr time.Duration) []*obs.Span {
	kept := spans[:0]
	for _, s := range spans {
		if s.End >= thr {
			kept = append(kept, s)
		}
	}
	return kept
}

// Finish completes the stream: spans still open (tasks, their queue
// waits and runs, executor restart windows) are clamped to the current
// virtual time and added as evidence in ID order, deferred and still-
// open tasks are attributed, every task gets the collector's (possibly
// just-assigned) scope, and the output is sorted back into span-ID
// order. Idempotent; BuildReport calls it automatically.
func (st *Streamer) Finish() {
	if st == nil || st.finished {
		return
	}
	st.finished = true
	now := st.c.Now()
	open := st.c.CheckClosed()
	sort.Slice(open, func(i, j int) bool { return open[i].ID < open[j].ID })
	var openTasks []*obs.Span
	for i := range open {
		s := &open[i]
		if !evidenceSpan(s) {
			continue
		}
		s.End = now
		if s.End < s.Start {
			s.End = s.Start
		}
		if st.a.addEvidence(s) {
			openTasks = append(openTasks, s)
		}
	}
	for _, t := range st.deferred {
		st.attribute(t)
	}
	st.deferred = nil
	for _, t := range openTasks {
		st.attribute(t)
	}
	scope := st.c.Scope()
	for i := range st.tasks {
		st.tasks[i].Scope = scope
	}
	sort.Sort(byTaskID{st})
}

// byTaskID sorts the attributed tasks (and their parallel ID keys)
// back into span-ID order.
type byTaskID struct{ st *Streamer }

func (b byTaskID) Len() int { return len(b.st.tasks) }
func (b byTaskID) Less(i, j int) bool {
	return b.st.taskIDs[i] < b.st.taskIDs[j]
}
func (b byTaskID) Swap(i, j int) {
	b.st.tasks[i], b.st.tasks[j] = b.st.tasks[j], b.st.tasks[i]
	b.st.taskIDs[i], b.st.taskIDs[j] = b.st.taskIDs[j], b.st.taskIDs[i]
}

// BuildReport finishes the streamers and merges their attributions in
// argument order, so a deterministic run yields a deterministic Report.
func BuildReport(streamers ...*Streamer) *Report {
	rep := &Report{}
	for _, st := range streamers {
		if st == nil {
			continue
		}
		st.Finish()
		rep.Tasks = append(rep.Tasks, st.tasks...)
	}
	rep.buildGroups()
	return rep
}

// WriteAlerts renders every SLO alert window the streamers saw as one
// text line per alert, in streamer (collector) order then emission
// order — the deterministic "alert stream" artifact.
func WriteAlerts(w io.Writer, streamers ...*Streamer) error {
	bw := bufio.NewWriter(w)
	for _, st := range streamers {
		if st == nil {
			continue
		}
		scope := st.c.Scope()
		for _, s := range st.alerts {
			fmt.Fprintf(bw, "%s app=%s start=%s end=%s peak_burn=%s events=%s\n",
				scope, s.Attr("app"), s.Start, s.End, s.Attr("peak_burn"), s.Attr("events"))
		}
	}
	return bw.Flush()
}
