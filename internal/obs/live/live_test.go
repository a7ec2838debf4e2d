package live

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

const ms = time.Millisecond

// addWork populates a collector with a deterministic span set plus
// some metrics.
func addWork(c *obs.Collector, clk *fakeClock) {
	reg := c.Metrics()
	lat := reg.Histogram("task_latency_seconds", obs.DefLatencyBuckets, obs.L("app", "llama"))
	for i := 0; i < 20; i++ {
		start := time.Duration(i) * 10 * ms
		end := start + 7*ms
		clk.t = end
		c.AddSpan("dfk", "task", "task", 0, start, end,
			obs.Int("task", i), obs.String("app", "llama"), obs.String("status", "done"))
		reg.Counter("tasks_total", obs.L("app", "llama")).Inc()
		lat.ObserveDuration(7 * ms)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestMetricsEndpointConformance(t *testing.T) {
	clk := &fakeClock{}
	c := obs.New(clk)
	c.SetScope("unit")
	addWork(c, clk)
	db := tsdb.New(c.Metrics(), clk, tsdb.Config{})
	db.Scrape()
	db.EventSeries("slo:burn", 16, obs.L("app", "llama")).Append(clk.t, 0.25)

	srv := NewServer()
	srv.AttachDB("unit", db)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := obs.LintPrometheus(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails conformance lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		`tasks_total{app="llama",scope="unit"} 20`,
		`slo:burn{app="llama",scope="unit"} 0.25`,
		`task_latency_seconds_count{app="llama",scope="unit"} 20`,
	} {
		if !bytes.Contains(body, []byte(want+"\n")) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestSpansTailIsSnapshotPrefix(t *testing.T) {
	srv := NewServer()
	tail := srv.Tail("unit")

	// One collector feeding the tail and the trace artifact.
	clk := &fakeClock{}
	c := obs.New(clk)
	c.SetScope("unit")
	var want bytes.Buffer
	artifact := obs.NewTraceStream(&want)
	c.SetSink(Tee(tail, artifact.Section("unit")))
	addWork(c, clk)
	c.Close()
	if err := artifact.Close(); err != nil {
		t.Fatalf("trace artifact: %v", err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, raw := get(t, ts, "/spans?format=raw")
	if code != http.StatusOK {
		t.Fatalf("/spans?format=raw status %d", code)
	}
	if len(raw) == 0 || !bytes.HasPrefix(want.Bytes(), raw) {
		t.Fatalf("raw tail (%d bytes) is not a prefix of the trace artifact (%d bytes)\ntail:\n%s",
			len(raw), want.Len(), raw)
	}
	// The tail covers everything up to the trailer: artifact = tail + "\n]}\n".
	if got, wantLen := len(raw), want.Len()-4; got != wantLen {
		t.Fatalf("tail covers %d bytes, want %d (artifact minus trailer)", got, wantLen)
	}

	// NDJSON mode: every line is a standalone JSON object.
	code, nd := get(t, ts, "/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans status %d", code)
	}
	lines := bytes.Split(bytes.TrimSpace(nd), []byte("\n"))
	if len(lines) < 20 {
		t.Fatalf("ndjson tail has %d lines, want >= 20", len(lines))
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("ndjson line %d not JSON: %v\n%s", i, err, line)
		}
		if _, ok := ev["ph"]; !ok {
			t.Fatalf("ndjson line %d has no ph field: %s", i, line)
		}
	}
	if n := tail.Spans(); n != 20 {
		t.Fatalf("tail saw %d spans, want 20", n)
	}

	if code, _ := get(t, ts, "/spans?scope=bogus"); code != http.StatusNotFound {
		t.Fatalf("/spans?scope=bogus status %d, want 404", code)
	}
}

func TestSeriesAPI(t *testing.T) {
	clk := &fakeClock{}
	c := obs.New(clk)
	addWork(c, clk) // advances clk per span; counter scraped below
	db := tsdb.New(c.Metrics(), clk, tsdb.Config{})
	db.Scrape()
	clk.t += time.Second
	c.Metrics().Counter("tasks_total", obs.L("app", "llama")).Add(10)
	db.Scrape()

	srv := NewServer()
	srv.AttachDB("unit", db)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var resp struct {
		OK      bool     `json:"ok"`
		Value   *float64 `json:"value"`
		Samples []any    `json:"samples"`
		Series  []any    `json:"series"`
		Error   string   `json:"error"`
	}
	query := func(path string, wantCode int) {
		t.Helper()
		code, body := get(t, ts, path)
		if code != wantCode {
			t.Fatalf("%s status %d, want %d: %s", path, code, wantCode, body)
		}
		resp = struct {
			OK      bool     `json:"ok"`
			Value   *float64 `json:"value"`
			Samples []any    `json:"samples"`
			Series  []any    `json:"series"`
			Error   string   `json:"error"`
		}{}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s bad JSON: %v\n%s", path, err, body)
		}
	}

	query("/api/series?name=tasks_total&app=llama", http.StatusOK)
	if !resp.OK || resp.Value == nil || *resp.Value != 30 {
		t.Fatalf("latest = %+v, want 30", resp)
	}
	query("/api/series?name=tasks_total&fn=rate&window=5s&app=llama", http.StatusOK)
	if !resp.OK || resp.Value == nil || *resp.Value != 10 {
		t.Fatalf("rate = %+v, want 10/s", resp)
	}
	query("/api/series?name=task_latency_seconds&fn=quantile&q=0.5&window=60s&app=llama", http.StatusOK)
	if !resp.OK || resp.Value == nil || *resp.Value <= 0 {
		t.Fatalf("quantile = %+v, want > 0", resp)
	}
	query("/api/series?name=tasks_total&fn=raw&app=llama", http.StatusOK)
	if !resp.OK || len(resp.Samples) != 2 {
		t.Fatalf("raw = %+v, want 2 samples", resp)
	}
	query("/api/series", http.StatusOK)
	if !resp.OK || len(resp.Series) == 0 {
		t.Fatalf("list = %+v, want series", resp)
	}
	query("/api/series?name=tasks_total&fn=bogus", http.StatusBadRequest)
	if resp.Error == "" {
		t.Fatal("bad fn should carry an error message")
	}
	query("/api/series?scope=unknown&name=x", http.StatusNotFound)
	if resp.Error == "" {
		t.Fatal("unknown scope should carry an error message")
	}
}

func TestProgressAndHealthz(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	p := srv.Progress()
	p.SetShards(2)
	p.SetPhase("running")
	p.ShardStarted(0)
	p.ShardStarted(1)
	p.TasksDone(64)
	p.ShardFinished(0)

	code, body := get(t, ts, "/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/progress bad JSON: %v\n%s", err, body)
	}
	if snap.Phase != "running" || snap.ShardsTotal != 2 || snap.ShardsDone != 1 ||
		snap.TasksDone != 64 || len(snap.ShardsRunning) != 1 || snap.ShardsRunning[0] != 1 {
		t.Fatalf("progress = %+v", snap)
	}

	p.ShardFinished(1)
	p.SetPhase("done")
	code, body = get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	if !strings.Contains(string(body), `"status":"ok"`) || !strings.Contains(string(body), `"phase":"done"`) {
		t.Fatalf("/healthz = %s", body)
	}

	// pprof is mounted.
	if code, _ = get(t, ts, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestServerStartClose(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz on %s: %v", addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

// TestSlowFollowerDropsAreCounted: a follower that never reads misses
// every chunk past its buffer, and the tail counts each one and reports
// the total on /spans.
func TestSlowFollowerDropsAreCounted(t *testing.T) {
	srv := NewServer()
	tail := srv.Tail("unit")
	_, cancel := tail.follow(1) // never read
	defer cancel()
	clk := &fakeClock{}
	c := obs.New(clk)
	c.SetSink(tail)
	addWork(c, clk)
	// One chunk per span: the first fills the buffer, the other 19 drop.
	if got := tail.Dropped(); got != 19 {
		t.Fatalf("Dropped() = %d, want 19", got)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Spans-Dropped"); got != "19" {
		t.Fatalf("X-Spans-Dropped = %q, want 19", got)
	}
}

// TestStalledHeadersDisconnected: a client that opens a connection but
// never finishes its request headers is cut off after the header
// timeout instead of holding the connection forever.
func TestStalledHeadersDisconnected(t *testing.T) {
	prev := readHeaderTimeout
	readHeaderTimeout = 100 * ms
	defer func() { readHeaderTimeout = prev }()
	srv := NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v", time.Since(start))
	}
}
