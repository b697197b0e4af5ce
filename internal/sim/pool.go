package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"wivfi/internal/obs"
)

// Telemetry: jobs admitted, total time jobs waited for a slot, and the
// number in flight (with high-water mark). Counters are always live and
// allocation-free; the spans in DoNamed record only while a recorder is
// installed.
// Metric names registered below. Declared constants (enforced by
// wivfi-lint countersafe) so every lookup site shares one authoritative
// spelling.
const (
	MetricPoolJobs        = "sim.pool.jobs"
	MetricPoolQueueWaitNS = "sim.pool.queue_wait_ns"
	MetricPoolInFlight    = "sim.pool.in_flight"
)

var (
	poolJobs      = obs.NewCounter(MetricPoolJobs)
	poolQueueWait = obs.NewCounter(MetricPoolQueueWaitNS)
	poolInFlight  = obs.NewGauge(MetricPoolInFlight)
)

// Pool bounds the number of CPU-heavy jobs (system simulations, annealing
// passes) running concurrently. The experiment harness shares one Pool per
// Suite so that fanning out many pipelines does not oversubscribe the host:
// any number of goroutines may queue work, at most cap(sem) of them compute
// at once.
//
// A nil *Pool is valid and admits every job at once, which keeps call
// sites free of nil checks: Do runs its job inline on the caller's
// goroutine, but Each still starts all its jobs concurrently, so a nil
// pool is unbounded, not serial. Serial execution is NewPool(1).
type Pool struct {
	// sem carries the slot ids 0..n-1; holding an id is holding an
	// admission slot. The id keys the per-slot trace track, so a Chrome
	// trace shows one lane per concurrent job.
	sem chan int
}

// NewPool returns a pool admitting n concurrent jobs; n < 1 is clamped to 1.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{sem: make(chan int, n)}
	for i := 0; i < n; i++ {
		p.sem <- i
	}
	return p
}

// DefaultPool sizes the pool to GOMAXPROCS, the right bound for the
// pure-CPU simulation jobs it gates.
func DefaultPool() *Pool {
	return NewPool(runtime.GOMAXPROCS(0))
}

// Size reports the admission bound (1 for a nil pool, whose Do runs inline).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return cap(p.sem)
}

// Do runs fn once an admission slot is free and releases the slot when fn
// returns. Callers must not call Do from inside fn (the pool is a simple
// semaphore; nested acquisition can deadlock when the pool is saturated
// with parents waiting on children). The harness always acquires slots for
// leaf jobs only.
func (p *Pool) Do(fn func()) { p.DoNamed("", "", fn) }

// DoNamed is Do plus a tracing span: when a recorder is installed and
// name is non-empty, fn's execution is recorded as a span named name
// (detail distinguishes instances) on the track of the admitting pool
// slot, so traces show one lane per concurrent simulation. With telemetry
// disabled it behaves exactly like Do.
func (p *Pool) DoNamed(name, detail string, fn func()) {
	if p == nil {
		if name != "" && obs.Enabled() {
			sp := obs.StartSpan(name, detail)
			defer sp.End()
		}
		fn()
		return
	}
	enqueued := time.Now()
	slot := <-p.sem
	poolQueueWait.Add(int64(time.Since(enqueued)))
	poolJobs.Add(1)
	poolInFlight.Add(1)
	defer func() {
		poolInFlight.Add(-1)
		p.sem <- slot
	}()
	if name != "" && obs.Enabled() {
		sp := obs.StartSpanOn(obs.TrackFor(fmt.Sprintf("pool-slot-%02d", slot)), name, detail)
		defer sp.End()
	}
	fn()
}

// Each runs job(0), ..., job(n-1) on their own goroutines, each holding
// one admission slot through DoNamed under the span name and detail that
// label(i) returns, waits for all of them, and returns the error of the
// lowest-indexed job that failed (nil if none did). Every job runs even
// when another fails, so the returned error does not depend on completion
// order. Jobs must not acquire from p themselves (see Do).
func (p *Pool) Each(n int, label func(i int) (name, detail string), job func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			name, detail := label(i)
			p.DoNamed(name, detail, func() { errs[i] = job(i) })
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
