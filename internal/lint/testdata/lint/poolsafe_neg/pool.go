// Package poolsafe_neg holds the sanctioned pool idioms that must stay
// clean under poolsafe: inner stages on a nil pool (inline execution),
// freshly constructed inner pools, provably distinct pools, and
// sequential re-acquisition after the job returns.
package poolsafe_neg

import "wivfi/internal/sim"

// nilParam runs the inner stage inline by passing a nil pool — the fix
// the PR 9 postmortem settled on.
func nilParam(pool *sim.Pool) {
	pool.Do(func() { runInline(nil) })
}

func runInline(inner *sim.Pool) {
	inner.Do(func() {})
}

// declaredNil binds the nil pool to a local first.
func declaredNil(pool *sim.Pool) {
	pool.Do(func() {
		var inner *sim.Pool = nil
		inner.Do(func() {})
	})
}

// fresh gives the inner stage its own newly constructed pool, which can
// never be the held one.
func fresh(pool *sim.Pool) {
	pool.Do(func() {
		inner := sim.NewPool(1)
		inner.Do(func() {})
	})
}

// outerPool and innerPool are distinct package-level pools: nesting
// across them cannot self-deadlock.
var (
	outerPool = sim.NewPool(2)
	innerPool = sim.NewPool(2)
)

func distinct() {
	outerPool.Do(func() {
		innerPool.Do(func() {})
	})
}

// helperDistinct binds the helper's pool parameter to a fresh pool, so
// the helper's acquisition is provably not the held slot's pool.
func helperDistinct(pool *sim.Pool) {
	pool.Do(func() { runInline(sim.NewPool(1)) })
}

// sequential acquires one slot at a time; the second acquisition only
// happens after the first job released its slot.
func sequential(pool *sim.Pool, jobs []func()) {
	for _, j := range jobs {
		pool.Do(j)
	}
}

func label(int) (string, string) { return "job", "" }

// eachFresh fans a job's inner stages out over a newly constructed pool,
// which can never be the held one.
func eachFresh(pool *sim.Pool, n int) error {
	return pool.Each(n, label, func(int) error {
		return sim.NewPool(1).Each(n, label, func(int) error { return nil })
	})
}

// eachNil fans the inner stages out over a nil pool, which holds no slot.
func eachNil(pool *sim.Pool, n int) (err error) {
	pool.Do(func() { err = fanInline(nil, n) })
	return err
}

func fanInline(inner *sim.Pool, n int) error {
	return inner.Each(n, label, func(int) error { return nil })
}
