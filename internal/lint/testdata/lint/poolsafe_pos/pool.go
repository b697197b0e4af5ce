// Package poolsafe_pos reproduces the nested pool-acquisition shapes the
// poolsafe analyzer exists for: a job holding a sim.Pool admission slot
// re-acquires, directly or transitively, from the same pool. Under
// saturation every slot holder waits for a slot and the run deadlocks —
// the PR 9 sweep/pipeline incident, committed here as a fixture.
package poolsafe_pos

import "wivfi/internal/sim"

// direct re-acquires inside the job closure itself.
func direct(pool *sim.Pool, work []func()) {
	pool.Do(func() {
		for _, w := range work {
			pool.Do(w)
		}
	})
}

// viaHelper leaks the held pool into a stage helper's parameter; the
// helper's acquisition is two call-graph edges away from the slot.
func viaHelper(pool *sim.Pool) {
	pool.DoNamed("outer", "stage", func() {
		runStage(pool)
	})
}

func runStage(p *sim.Pool) {
	p.Do(func() {})
}

// runner carries its pool in a field: the held pool is r.pool, and the
// method reached from the job acquires it again through the receiver.
type runner struct {
	pool *sim.Pool
}

func (r *runner) run() {
	r.pool.Do(func() { r.stage() })
}

func (r *runner) stage() {
	r.pool.Do(func() {})
}

// shared is a package-level pool; sharedLeaf names it directly, so
// passing sharedLeaf as a job nests the acquisition with no parameters
// involved at all.
var shared = sim.NewPool(2)

func sharedLeaf() { shared.Do(func() {}) }

func nestedShared() {
	shared.Do(sharedLeaf)
}

// viaGoroutine launches and joins a goroutine from the job: the slot is
// held for the goroutine's whole life, so its acquisition still nests.
func viaGoroutine(pool *sim.Pool) {
	pool.Do(func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			pool.Do(func() {})
		}()
		<-done
	})
}

// registry hands out pools of unprovable identity; acquiring one while
// holding a slot is flagged conservatively.
var registry = map[string]*sim.Pool{}

func lookup(name string) *sim.Pool { return registry[name] }

func viaLookup(pool *sim.Pool) {
	pool.Do(func() {
		lookup("inner").Do(func() {})
	})
}

// label names every fan-out job the same; the shapes below are about the
// job bodies.
func label(int) (string, string) { return "job", "" }

// nestedEach fans out again over the held pool from inside an Each job:
// each job holds a slot while its own children wait for one.
func nestedEach(pool *sim.Pool, n int) error {
	return pool.Each(n, label, func(int) error {
		return pool.Each(n, label, func(int) error { return nil })
	})
}

// doInEach acquires the held pool with Do from an Each job.
func doInEach(pool *sim.Pool, work []func()) error {
	return pool.Each(len(work), label, func(i int) error {
		pool.Do(work[i])
		return nil
	})
}
