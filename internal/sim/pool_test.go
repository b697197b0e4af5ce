package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	if p.Size() != 3 {
		t.Fatalf("Size = %d", p.Size())
	}
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(func() {
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				for j := 0; j < 1000; j++ { // hold the slot briefly
					_ = j
				}
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Errorf("observed %d concurrent jobs in a pool of 3", got)
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Size() != 1 {
		t.Fatalf("nil pool Size = %d", p.Size())
	}
	ran := false
	p.Do(func() { ran = true })
	if !ran {
		t.Error("nil pool did not run the job")
	}
}

func TestPoolClampsToOne(t *testing.T) {
	if got := NewPool(0).Size(); got != 1 {
		t.Errorf("NewPool(0).Size() = %d, want 1", got)
	}
	if got := NewPool(-5).Size(); got != 1 {
		t.Errorf("NewPool(-5).Size() = %d, want 1", got)
	}
}

func eachLabel(i int) (string, string) { return "job", fmt.Sprint(i) }

func TestEachReturnsLowestIndexError(t *testing.T) {
	// Job 3 fails first; job 1 fails only after it, so a first-in-time
	// error would be job 3's.
	late := make(chan struct{})
	errs := []error{nil, errors.New("job 1"), nil, errors.New("job 3")}
	err := NewPool(len(errs)).Each(len(errs), eachLabel, func(i int) error {
		switch i {
		case 1:
			<-late
		case 3:
			defer close(late)
		}
		return errs[i]
	})
	if !errors.Is(err, errs[1]) {
		t.Errorf("Each = %v, want the lowest-indexed error %v", err, errs[1])
	}
}

func TestEachRunsEveryJob(t *testing.T) {
	var ran atomic.Int64
	err := NewPool(2).Each(20, eachLabel, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("job 0")
		}
		return nil
	})
	if err == nil {
		t.Error("Each swallowed job 0's error")
	}
	if got := ran.Load(); got != 20 {
		t.Errorf("%d of 20 jobs ran after job 0 failed", got)
	}
}

func TestEachBoundsInFlight(t *testing.T) {
	p := NewPool(3)
	var cur, peak atomic.Int64
	err := p.Each(50, eachLabel, func(int) error {
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond) // hold the slot briefly
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > int64(p.Size()) {
		t.Errorf("observed %d concurrent jobs in a pool of %d", got, p.Size())
	}
}

func TestEachNilPoolIsUnbounded(t *testing.T) {
	// Every job waits until all n have started, which only completes if a
	// nil pool runs them concurrently rather than one at a time.
	const n = 8
	var arrived sync.WaitGroup
	arrived.Add(n)
	done := make(chan error, 1)
	go func() {
		var p *Pool
		done <- p.Each(n, eachLabel, func(int) error {
			arrived.Done()
			arrived.Wait()
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("jobs on a nil pool did not all run at once")
	}
}

func TestEachZeroJobs(t *testing.T) {
	for _, p := range []*Pool{nil, NewPool(2)} {
		err := p.Each(0, eachLabel, func(int) error {
			t.Error("job ran for n == 0")
			return nil
		})
		if err != nil {
			t.Errorf("Each(0) = %v, want nil", err)
		}
	}
}
