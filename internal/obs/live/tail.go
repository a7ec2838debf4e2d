// Package live is the HTTP observability plane over a running (or
// finished) simulation: Prometheus /metrics and JSON /api/series from
// tsdb snapshots, an NDJSON /spans tail fed by the streaming span
// sinks, /progress and /healthz for supervision, and net/http/pprof.
//
// The simulation writes (span emits, tsdb scrapes) happen on the sim
// goroutine; HTTP handlers run on server goroutines. Every shared
// structure here is lock-protected, and nothing on the serving side
// ever touches the virtual clock — windowed queries use the newest
// written virtual time as "now".
package live

import (
	"sync"

	"repro/internal/obs"
)

// SpanTail is a SpanSink that retains the most recent rendered trace
// events in a bounded byte window for the /spans endpoint, and
// broadcasts each flush to live followers. Events are rendered by the
// same TraceSection code as the artifact exporters, so as long as
// nothing has been evicted the raw tail is a byte-prefix of the
// Chrome-trace artifact for the same collector.
type SpanTail struct {
	mu      sync.Mutex
	sec     *obs.TraceSection
	scope   string
	chunks  [][]byte // one entry per EmitSpan flush, ",\n"-prefixed
	bytes   int
	evicted int64
	dropped int64 // chunks not delivered to a follower whose buffer was full
	spans   int64
	subs    map[chan []byte]struct{}
}

// DefaultTailBytes bounds a tail's retained window.
const DefaultTailBytes = 1 << 20

// NewSpanTail builds a tail rendering as trace process pid (matching
// the collector's position in the trace artifact) named by scope.
func NewSpanTail(pid int, scope string) *SpanTail {
	t := &SpanTail{scope: scope, subs: make(map[chan []byte]struct{})}
	// The TraceSection writes its process metadata on construction;
	// route it through the same capture path as every event.
	t.sec = obs.NewTraceSection(captureWriter{t}, pid, scope)
	return t
}

// captureWriter receives TraceSection flushes under the tail's lock
// discipline: EmitSpan (sim goroutine) is the only caller.
type captureWriter struct{ t *SpanTail }

func (w captureWriter) Write(p []byte) (int, error) {
	t := w.t
	chunk := append([]byte(nil), p...)
	t.mu.Lock()
	t.chunks = append(t.chunks, chunk)
	t.bytes += len(chunk)
	for t.bytes > DefaultTailBytes && len(t.chunks) > 1 {
		t.bytes -= len(t.chunks[0])
		t.chunks[0] = nil // release the evicted chunk's backing array
		t.chunks = t.chunks[1:]
		t.evicted++
	}
	for ch := range t.subs {
		select {
		case ch <- chunk:
		default: // a slow follower drops events rather than stalling the sim
			t.dropped++
		}
	}
	t.mu.Unlock()
	return len(p), nil
}

// EmitSpan implements obs.SpanSink.
func (t *SpanTail) EmitSpan(s *obs.Span) {
	t.sec.EmitSpan(s)
	t.mu.Lock()
	t.spans++
	t.mu.Unlock()
}

// Snapshot copies out the retained chunks plus how many older chunks
// were evicted (0 means the tail still starts at the beginning of the
// stream).
func (t *SpanTail) Snapshot() (chunks [][]byte, evicted int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][]byte(nil), t.chunks...), t.evicted
}

// Spans returns how many spans the tail has seen.
func (t *SpanTail) Spans() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// Dropped returns how many chunks followers have missed because their
// buffers were full, summed over every follower the tail has had.
func (t *SpanTail) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Scope returns the tail's trace-process name.
func (t *SpanTail) Scope() string { return t.scope }

// follow subscribes to future flushes; the returned cancel must be
// called when the follower leaves.
func (t *SpanTail) follow(buf int) (ch chan []byte, cancel func()) {
	ch = make(chan []byte, buf)
	t.mu.Lock()
	t.subs[ch] = struct{}{}
	t.mu.Unlock()
	return ch, func() {
		t.mu.Lock()
		delete(t.subs, ch)
		t.mu.Unlock()
	}
}

// Tee fans one span stream out to several sinks — e.g. a scale shard's
// spill-file TraceSection plus the live tail. Nil sinks are skipped.
func Tee(sinks ...obs.SpanSink) obs.SpanSink {
	var nn []obs.SpanSink
	for _, s := range sinks {
		if s != nil {
			nn = append(nn, s)
		}
	}
	if len(nn) == 1 {
		return nn[0]
	}
	return teeSink(nn)
}

type teeSink []obs.SpanSink

func (t teeSink) EmitSpan(s *obs.Span) {
	for _, sink := range t {
		sink.EmitSpan(s)
	}
}
