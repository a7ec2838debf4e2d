package report

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs/tsdb"
)

// fleetTestOptions is a small-but-real grid cell basis: enough GPUs
// and apps to exercise MIG shares, whole-GPU MPS fallback, rejections,
// and rebalancing, while staying fast enough to render three times.
func fleetTestOptions() FleetOptions {
	return FleetOptions{
		GPUs80: 10, GPUs40: 10, Apps: 16,
		Duration: 2 * time.Minute, Seed: 3,
	}
}

// TestFleetDeterminism is the fleet artifact's regression contract:
// the rendering is byte-identical at -parallel 1 and 4, across
// repeated parallel runs, and under -stream (every reported line is
// virtual, so neither scheduling nor collection mode may leak in).
func TestFleetDeterminism(t *testing.T) {
	render := func(workers int, stream bool) []byte {
		prev := harness.SetParallelism(workers)
		defer harness.SetParallelism(prev)
		var b bytes.Buffer
		opts := fleetTestOptions()
		opts.Stream = stream
		if err := Fleet(&b, opts); err != nil {
			t.Fatalf("Fleet with %d workers (stream=%v): %v", workers, stream, err)
		}
		return b.Bytes()
	}
	seq := render(1, false)
	if len(seq) == 0 {
		t.Fatal("sequential fleet artifact is empty")
	}
	par := render(4, false)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel output differs from sequential:\n%s", firstDiff(seq, par))
	}
	par2 := render(4, false)
	if !bytes.Equal(par, par2) {
		t.Fatalf("repeated parallel runs differ:\n%s", firstDiff(par, par2))
	}
	str := render(4, true)
	if !bytes.Equal(seq, str) {
		t.Fatalf("streaming output differs from snapshot:\n%s", firstDiff(seq, str))
	}
}

// TestFleetArtifactShape pins the artifact's line vocabulary: one
// config echo per load cell, admission and class lines, at least two
// fragmentation samples, and the rebalance ledger.
func TestFleetArtifactShape(t *testing.T) {
	var b bytes.Buffer
	if err := Fleet(&b, fleetTestOptions()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Fleet-scale placement",
		"config: load=0.5x", "config: load=1.0x", "config: load=1.5x",
		"virtual: arrivals=", "virtual: class small",
		"virtual: class oversize", "virtual: frag t=",
		"virtual: rebalances=", "virtual: peak_tenants=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("artifact is missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "virtual: frag t="); n < 6 {
		t.Errorf("only %d fragmentation samples across 3 cells", n)
	}
	if strings.Contains(out, "wall:") {
		t.Error("fleet artifact must stay purely virtual (no wall lines)")
	}
}

// TestFleetTelemetryHooks checks the live-plane wiring: each load
// cell gets its own series store, labeled by cell.
func TestFleetTelemetryHooks(t *testing.T) {
	var b bytes.Buffer
	opts := fleetTestOptions()
	// OnCellDB runs concurrently from the cells' harness workers.
	var mu sync.Mutex
	seen := make(map[string]*tsdb.DB)
	opts.Telemetry = &FleetTelemetry{
		TSDB: &tsdb.Config{},
		OnCellDB: func(load string, db *tsdb.DB) {
			mu.Lock()
			seen[load] = db
			mu.Unlock()
		},
	}
	if err := Fleet(&b, opts); err != nil {
		t.Fatal(err)
	}
	for _, m := range fleetLoads {
		label := fleetLoadLabel(m)
		db := seen[label]
		if db == nil {
			t.Fatalf("cell %s never attached a series store (got %v)", label, seen)
		}
		if len(db.List()) == 0 {
			t.Errorf("cell %s store scraped no series", label)
		}
	}
}
