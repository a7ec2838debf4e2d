//go:build !go1.23

package devent

// Runners are iter.Pull coroutines (runner_pull.go), which need Go 1.23
// or newer. There is deliberately no fallback kernel: on an older
// toolchain this undefined identifier is the build error.
func (e *Env) newRunner() *runner { return devent_requires_go1_23_for_iter_Pull }
