package analyze

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// TestMonitorTSDBMatchesClassic replays one deterministic task-outcome
// stream — two apps, latency-violation bursts that raise and clear
// alerts several times, a pseudo-random sprinkle of failures — through
// a monitor with a private store and one sharing the run's store, and
// requires both alert streams to equal testdata/monitor_alerts.txt,
// captured from the retired list-backed monitor. The burn fraction is
// a windowed sum of 0/1 samples, so the floats (and therefore every
// alert boundary and peak) match the list computation exactly.
func TestMonitorTSDBMatchesClassic(t *testing.T) {
	want, err := os.ReadFile("testdata/monitor_alerts.txt")
	if err != nil {
		t.Fatal(err)
	}
	rules := []Rule{
		{App: "llama", Latency: 10 * ms, Target: 0.9, Window: time.Second},
		{App: "resnet", Latency: 20 * ms, Target: 0.8, Window: 2 * time.Second},
	}

	clk1, clk2 := &tickClock{}, &tickClock{}
	c1, c2 := obs.New(clk1), obs.New(clk2)
	c1.SetScope("unit")
	c2.SetScope("unit")
	st1, st2 := NewStreamer(c1), NewStreamer(c2)
	m1 := NewMonitor(c1, clk1, rules, nil)
	db := tsdb.New(c2.Metrics(), clk2, tsdb.Config{})
	m2 := NewMonitor(c2, clk2, rules, db)

	// xorshift-ish LCG for a reproducible failure sprinkle.
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	emit := func(id int, app string, start, end time.Duration, status string) {
		for _, c := range []*obs.Collector{c1, c2} {
			c.AddSpan("dfk", "task", "task", 0, start, end,
				obs.Int("task", id),
				obs.String("app", app),
				obs.String("executor", "htex-gpu"),
				obs.String("status", status),
			)
		}
	}
	id := 0
	for i := 0; i < 1200; i++ {
		at := time.Duration(i) * 10 * ms // one task per app every 10ms
		// llama: latency bursts in [2s,3s) and [6s,7s).
		d := 5 * ms
		if (at >= 2*time.Second && at < 3*time.Second) || (at >= 6*time.Second && at < 7*time.Second) {
			d = 50 * ms
		}
		status := "done"
		if next()%97 == 0 {
			status = "failed"
		}
		emit(id, "llama", at, at+d, status)
		id++
		// resnet: a single long failure plateau in [4s,5.5s).
		d = 10 * ms
		if at >= 4*time.Second && at < 5500*ms {
			d = 80 * ms
		}
		emit(id, "resnet", at, at+d, "done")
		id++
	}
	endAt := 1200 * 10 * ms
	clk1.now, clk2.now = endAt, endAt
	m1.Close()
	m2.Close()

	if n := bytes.Count(want, []byte("\n")); n < 3 {
		t.Fatalf("golden must hold >= 3 alert windows across apps, got %d:\n%s", n, want)
	}
	for _, st := range []*Streamer{st1, st2} {
		var got bytes.Buffer
		if err := WriteAlerts(&got, st); err != nil {
			t.Fatalf("WriteAlerts: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("alert stream differs from golden:\ngolden:\n%s\ngot:\n%s", want, got.Bytes())
		}
	}
	// The engine's alert counters live in the private store's registry,
	// never in the collector's exported metrics.
	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom, c1); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(prom.Bytes(), []byte("alert_")) || bytes.Contains(prom.Bytes(), []byte("slo_window_clipped_total")) {
		t.Fatalf("private-store monitor leaked engine or clip counters:\n%s", prom.Bytes())
	}

	// The db-backed monitor leaves a queryable control signal behind.
	if s, ok := db.Latest("slo:burn", obs.L("app", "llama")); !ok {
		t.Fatal("slo:burn series not recorded")
	} else if s.T <= 0 {
		t.Fatalf("slo:burn latest at %v", s.T)
	}
	if n, _ := db.EventSeries("slo:events", 0, obs.L("app", "llama")).CountSince(0); n != 1200 {
		t.Fatalf("slo:events retained %d samples, want 1200", n)
	}
}

// TestMonitorTSDBWindowClipping shrinks the event-series capacity so
// the sliding window outgrows the ring, and checks the degradation is
// surfaced on the clip counter rather than silent.
func TestMonitorTSDBWindowClipping(t *testing.T) {
	prev := sloSeriesCap
	sloSeriesCap = 8
	defer func() { sloSeriesCap = prev }()

	clk := &tickClock{}
	c := obs.New(clk)
	db := tsdb.New(c.Metrics(), clk, tsdb.Config{})
	rules := []Rule{{App: "llama", Latency: 10 * ms, Target: 0.9, Window: time.Second}}
	if m := NewMonitor(c, clk, rules, db); m == nil {
		t.Fatal("nil monitor")
	}
	for i := 0; i < 32; i++ {
		at := time.Duration(i) * ms // all 32 events inside one window, ring holds 8
		c.AddSpan("dfk", "task", "task", 0, at, at+5*ms,
			obs.Int("task", i), obs.String("app", "llama"),
			obs.String("executor", "htex-gpu"), obs.String("status", "done"))
	}
	clipped := c.Metrics().Counter("slo_window_clipped_total", obs.L("app", "llama")).Value()
	if clipped == 0 {
		t.Fatal("ring overflow inside the window did not count as clipped")
	}
}
