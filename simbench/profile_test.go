package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/simgpu"
)

func TestLayerOfSyntheticStacks(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"innermost module wins", []string{
			"runtime.mallocgc", "repro/internal/obs.(*Collector).StartSpan",
			"repro/internal/faas.(*DFK).Submit", "repro/internal/core.runScaleShard.func2",
		}, "obs"},
		{"nested package is named by its last element", []string{
			"runtime.chansend1", "repro/internal/faas/htex.(*HTEX).worker", "repro/internal/devent.(*Proc).body",
		}, "htex"},
		{"tsdb under obs", []string{"repro/internal/obs/tsdb.(*DB).Scrape", "repro/internal/obs.(*Registry).VisitSeries"}, "tsdb"},
		{"generic instantiation", []string{
			"repro/internal/harness.Map[go.shape.struct { repro/internal/core.x int }].func1", "runtime.goexit",
		}, "harness"},
		{"closure in core", []string{"repro/internal/core.RunFleet.func3", "repro/internal/devent.(*Proc).body"}, "core"},
		{"module outside the layer list", []string{"repro/internal/gpuctl.(*Node).Acquire"}, "other"},
		{"gc assist charged to the allocating layer", []string{
			"runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/simgpu.(*Device).run",
		}, "simgpu"},
		{"background mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, layerGC},
		{"sweeper", []string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, layerGC},
		{"gc pseudo-frame", []string{"runtime._GC"}, layerGC},
		{"scheduler", []string{"runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, layerSched},
		{"system pseudo-frame", []string{"runtime._System"}, layerSched},
		{"the benchmark's own code", []string{"crypto/sha256.block", "main.(*outcome).digest", "main.main"}, layerUnattributed},
		{"empty", nil, layerUnattributed},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCPUByLayerDecodesProfile profiles a real batch and checks that
// the decoder accounts for every sample and charges most of them to
// the task-path layers.
func TestCPUByLayerDecodesProfile(t *testing.T) {
	w, err := setupMicrotask(defaultSeed, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := w.run(newTracer()); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	cpu, n, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no samples decoded")
	}
	var total float64
	for _, v := range cpu {
		total += v
	}
	// At the default 100 Hz every sample is 10 ms.
	if want := float64(n) * 0.01; total < 0.99*want || total > 1.01*want {
		t.Errorf("layers sum to %.3f s for %d samples, want %.3f s", total, n, want)
	}
	if cpu["devent"] == 0 || cpu["simgpu"] != 0 || cpu["fleet"] != 0 {
		t.Errorf("microtask split: devent=%.3f simgpu=%.3f fleet=%.3f", cpu["devent"], cpu["simgpu"], cpu["fleet"])
	}
	if u := cpu[layerUnattributed] / total; u > 0.05 && !raceEnabled {
		t.Errorf("unattributed share %.3f > 0.05: %v", u, cpu)
	}
}

func TestCPUByLayerRejectsGarbage(t *testing.T) {
	if _, _, err := cpuByLayer([]byte("not a profile")); err == nil {
		t.Fatal("want an error for a non-gzip profile")
	}
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("want an error for a truncated message")
	}
}

func TestAllocByLayerDiffsSnapshots(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	specs := make([]simgpu.DeviceSpec, 64)
	for i := range specs {
		specs[i] = simgpu.A100SXM480GB()
	}
	before := memProfile()
	var keep []fleet.Inventory
	for i := 0; i < 100; i++ {
		keep = append(keep, fleet.NewInventory(specs...))
	}
	by := allocByLayer(before, memProfile(), 1)
	if by["fleet"] < 100*64*64 {
		t.Errorf("fleet allocated %.0f B over 100 inventories of 64 GPUs; by layer: %v", by["fleet"], by)
	}
	// Samples taken before the first snapshot may still be published
	// into the second, so other layers can show a little.
	var total float64
	for _, v := range by {
		total += v
	}
	if by["fleet"] < 0.9*total {
		t.Errorf("fleet charged %.0f of %.0f B by a fleet-only call: %v", by["fleet"], total, by)
	}
	runtime.KeepAlive(keep)
}
