package core

import (
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/simgpu"
)

func TestPlatformDefaults(t *testing.T) {
	pl, err := NewPlatform(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Devices) != 2 {
		t.Fatalf("devices = %d", len(pl.Devices))
	}
	if pl.Devices[0].Spec().Name != "A100-SXM4-80GB" {
		t.Fatalf("spec = %s", pl.Devices[0].Spec().Name)
	}
}

// TestPlatformMonitorRecordsTasks checks the record a task's future
// holds once the platform has run it: app, status and run time.
func TestPlatformMonitorRecordsTasks(t *testing.T) {
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	pl.Register(faas.App{Name: "hello", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(time.Second)
		return "hi", nil
	}})
	var fut *faas.Future
	err = pl.Run(func(p *devent.Proc) error {
		fut = pl.DFK.Submit("hello")
		_, err := fut.Result(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	task := fut.Task()
	if task.App != "hello" || task.Status != faas.TaskDone || task.RunTime() != time.Second {
		t.Fatalf("task = %+v", task)
	}
}

func TestConfigureGPUExecutorReplaces(t *testing.T) {
	pl, err := NewPlatform(Options{
		DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()},
		WorkerInit:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pcts []int
	pl.Register(faas.App{Name: "probe", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		pcts = append(pcts, ctx.SMPercent())
		return nil, nil
	}})
	err = pl.Run(func(p *devent.Proc) error {
		if _, err := pl.StartMPS(p, 0); err != nil {
			return err
		}
		if err := pl.ConfigureGPUExecutor(p, []string{"0"}, []int{60}); err != nil {
			return err
		}
		if _, err := pl.DFK.Submit("probe").Result(p); err != nil {
			return err
		}
		// Reconfigure: the old executor drains, the new binding wins.
		if err := pl.ConfigureGPUExecutor(p, []string{"0"}, []int{30}); err != nil {
			return err
		}
		if _, err := pl.DFK.Submit("probe").Result(p); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pcts) != 2 || pcts[0] != 60 || pcts[1] != 30 {
		t.Fatalf("pcts = %v", pcts)
	}
	if pl.GPU() == nil {
		t.Fatal("GPU() accessor nil after configure")
	}
}

func TestPlatformConfigureMIG(t *testing.T) {
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	err = pl.Run(func(p *devent.Proc) error {
		uuids, err := pl.ConfigureMIG(p, 0, []string{"3g.40gb", "3g.40gb"})
		if err != nil {
			return err
		}
		if len(uuids) != 2 {
			t.Errorf("uuids = %v", uuids)
		}
		if !pl.Devices[0].MIGEnabled() {
			t.Error("MIG not enabled")
		}
		// Re-layout works through the same call.
		uuids, err = pl.ConfigureMIG(p, 0, []string{"7g.80gb"})
		if err != nil {
			return err
		}
		if len(uuids) != 1 {
			t.Errorf("relayout uuids = %v", uuids)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlatformRunPropagatesMainError(t *testing.T) {
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := simgpu.ErrBusy
	if got := pl.Run(func(p *devent.Proc) error { return sentinel }); got != sentinel {
		t.Fatalf("got = %v", got)
	}
}
