//go:build go1.23

package devent

import "iter"

// newRunner builds a runner whose first next call starts its loop.
func (e *Env) newRunner() *runner {
	r := &runner{env: e}
	r.next, r.stop = iter.Pull(r.loop)
	return r
}
