package devent

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcPanicKeepsRunner drives the scheduler's handoff by hand so
// the runner can be observed between bodies: a panicking body fails
// the Env, its runner survives on the idle list, the next Spawn reuses
// it, and the reused runner runs a body normally.
func TestProcPanicKeepsRunner(t *testing.T) {
	env := NewEnv()
	bad := env.Spawn("bad", func(p *Proc) { panic("boom") })
	r := bad.r
	env.handoff(bad)
	if !bad.dead || !bad.Done().Fired() {
		t.Fatal("panicking proc not recorded as exited")
	}
	if len(env.idle) != 1 || env.idle[0] != r {
		t.Fatalf("idle runners = %d, want the panicking proc's runner", len(env.idle))
	}

	ran := false
	good := env.Spawn("good", func(p *Proc) { ran = true })
	if good.r != r {
		t.Fatal("Spawn did not reuse the idle runner")
	}
	env.handoff(good)
	if !ran || !good.Done().Fired() {
		t.Fatal("body on the recycled runner did not run to completion")
	}
	if len(env.idle) != 1 || env.idle[0] != r {
		t.Fatal("recycled runner did not return to the idle list")
	}

	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "proc bad#1 panicked: boom") {
		t.Fatalf("Run = %v, want the Env.Fail error of the panic", err)
	}
	if len(env.idle) != 0 {
		t.Fatalf("%d idle runners left after Run returned", len(env.idle))
	}
}

// liveGoroutines is runtime.NumGoroutine without the runners a
// race-enabled build keeps in raceKept.
func liveGoroutines() int {
	raceKept.Lock()
	defer raceKept.Unlock()
	return runtime.NumGoroutine() - len(raceKept.runners)
}

// TestRunnerPoolBoundedAndReleased checks that spawn/exit churn reuses
// runners, that a burst of exits keeps at most maxIdleRunners of them,
// and that Run's return leaves one goroutine per parked proc and no
// more.
func TestRunnerPoolBoundedAndReleased(t *testing.T) {
	before := liveGoroutines()
	env := NewEnv()
	const parked = 3
	never := env.NewEvent()
	for i := 0; i < parked; i++ {
		env.Spawn("parked", func(p *Proc) { p.Wait(never) }).SetDaemon(true)
	}
	churnIdle, peak := -1, -1
	env.Spawn("spawner", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			c := env.Spawn("child", func(p *Proc) { p.Yield() })
			p.Wait(c.Done())
		}
		churnIdle = len(env.idle)
		burst := make([]*Event, 2*maxIdleRunners)
		for i := range burst {
			burst[i] = env.Spawn("burst", func(p *Proc) { p.Sleep(time.Second) }).Done()
		}
		p.Wait(AllOf(env, burst...))
		peak = liveGoroutines() - before
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if churnIdle != 1 {
		t.Errorf("sequential churn left %d idle runners, want 1", churnIdle)
	}
	// The parked procs, the spawner, and a full idle list (race builds
	// keep the whole burst, see raceKept).
	idle := maxIdleRunners
	if raceEnabled {
		idle = 2 * maxIdleRunners
	}
	if want := parked + 1 + idle; peak != want {
		t.Errorf("goroutines after the burst = %d, want %d", peak, want)
	}
	if got := liveGoroutines() - before; got != parked {
		t.Errorf("goroutines after Run = %d, want %d (one per parked proc)", got, parked)
	}
}

// TestProcGoexitEndsRunGoroutine pins what runtime.Goexit in a proc
// body does: iter.Pull propagates it to the goroutine that called Run,
// which exits without Run returning. The proc's exit is still recorded
// and the Env stays usable.
func TestProcGoexitEndsRunGoroutine(t *testing.T) {
	env := NewEnv()
	q := env.Spawn("quitter", func(p *Proc) { runtime.Goexit() })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = env.Run() // never returns: the proc's Goexit ends this goroutine
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned; want the proc's Goexit to end Run's goroutine")
	}
	if !q.Done().Fired() {
		t.Error("quitter's Done did not fire")
	}
	if env.running {
		t.Error("Env still marked running")
	}
	ran := false
	env.Spawn("after", func(p *Proc) { ran = true })
	if err := env.Run(); err != nil || !ran {
		t.Fatalf("Run after Goexit = %v, ran = %v", err, ran)
	}
}
