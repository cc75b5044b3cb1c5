//go:build go1.23

package sim

import "iter"

// coroutine makes fn a coroutine of the engine: next runs fn until its
// process parks (p.yield) or returns, reporting false once fn has
// returned. iter.Pull switches goroutines directly, without a pass
// through the Go scheduler, and re-raises a panic of fn out of next.
// The one call lives in this file so the module's go.mod can stay at an
// older language version than the iter package.
func (p *Proc) coroutine(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
}
