package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"wivfi/internal/obs"
)

// desCaseIndex finds the case of noc-des with the given key suffix
// ("winoc/0.08/0") in a set-up workload.
func desCaseIndex(t *testing.T, w *desWorkload, suffix string) int {
	t.Helper()
	for i, c := range w.cases {
		if strings.HasSuffix(c.key, "/"+suffix) {
			return i
		}
	}
	t.Fatalf("no noc-des case %q", suffix)
	return -1
}

func TestCommittedDigestsPass(t *testing.T) {
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	w := &desWorkload{want: want}
	if err := w.setup(1); err != nil {
		t.Fatal(err)
	}
	i := desCaseIndex(t, w, "mesh/0.02/0")
	if _, ok := want.want[w.cases[i].key]; !ok {
		t.Fatalf("expected.json holds no digest for %s", w.cases[i].key)
	}
	if r := w.op(i, nil); r.failure != "" {
		t.Fatalf("op on %s failed: %s", r.label, r.failure)
	}
}

// A digest that does not match the program's output must fail the op,
// count in the phase's failed ops and turn the result's correct flag off.
func TestTamperedDigestFailsOps(t *testing.T) {
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	w := &desWorkload{want: want}
	if err := w.setup(1); err != nil {
		t.Fatal(err)
	}
	tampered := &digests{want: map[string]string{}}
	for k, v := range want.want {
		tampered.want[k] = v
	}
	tampered.want[w.cases[0].key] = "000000000000000000000000"
	w.want = tampered

	// Op 0 runs the tampered case; op 1 an untouched one.
	ph := timedPhase(w, 2, nil, io.Discard)
	if ph.attempted != 2 || ph.failed != 1 || ph.mismatches != 1 {
		t.Fatalf("attempted %d failed %d mismatches %d, want 2 1 1", ph.attempted, ph.failed, ph.mismatches)
	}
	var out bytes.Buffer
	if code := report(&out, ph, nil, false); code != 0 {
		t.Fatalf("report exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("result %+v, want correct=false attempted=2 failed=1", res)
	}
}

// The WiNoC deadlock at 0.08 flits/cycle/node must come back as a failed
// op within a bounded time, while the mesh delivers the same trace.
func TestDESDeadlockIsAFailureNotAHang(t *testing.T) {
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	w := &desWorkload{want: want}
	if err := w.setup(1); err != nil {
		t.Fatal(err)
	}
	winoc := desCaseIndex(t, w, "winoc/0.08/0")
	mesh := desCaseIndex(t, w, "mesh/0.08/0")

	done := make(chan opResult, 1)
	start := time.Now()
	go func() { done <- w.op(winoc, nil) }()
	select {
	case r := <-done:
		if r.failure == "" || r.mismatch {
			t.Fatalf("deadlocked op: failure %q mismatch %v, want a failure that is not an output mismatch", r.failure, r.mismatch)
		}
		if !strings.Contains(r.failure, "undelivered") {
			t.Errorf("failure %q does not report the undelivered packets", r.failure)
		}
		// MaxCycles is twice the injection horizon, a fraction of a
		// second of host time; the 2M-cycle default took seconds.
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("deadlocked op took %v; MaxCycles no longer bounds it", d)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("deadlocked op did not return")
	}
	if r := w.op(mesh, nil); r.failure != "" {
		t.Fatalf("mesh op on the same trace failed: %s", r.failure)
	}
}

// tracedRun runs n ops of a fresh workload through a traced phase and
// returns the obs counter deltas under the given prefixes, the tracer's
// per-op counts and the output digests the ops produced.
func tracedRun(t *testing.T, name string, n int, prefixes ...string) (map[string]int64, map[string]float64, map[string]string) {
	t.Helper()
	d := &digests{seen: map[string]string{}}
	wl, err := newWorkload(name, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.setup(1); err != nil {
		t.Fatal(err)
	}
	before := obs.CounterTotals()
	tr := newTracer()
	ph := timedPhase(wl, n, tr, io.Discard)
	if ph.mismatches != 0 {
		t.Fatalf("%s: %d output mismatches", name, ph.mismatches)
	}
	after := obs.CounterTotals()
	deltas := map[string]int64{}
	for k, v := range after {
		for _, p := range prefixes {
			if strings.HasPrefix(k, p) {
				deltas[k] = v - before[k]
			}
		}
	}
	return deltas, tr.counts, d.seen
}

// Two traced runs of the same ops must agree on every DES and governor
// count and on every simulated statistic.
func TestTracedCountsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"noc-des", 2 * len(desRates) * desTracesPerRate}, // every trace on both topologies, through RunDES
		{"scale-12x12", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c1, n1, d1 := tracedRun(t, tc.name, tc.n, "noc.des.", "governor.")
			c2, n2, d2 := tracedRun(t, tc.name, tc.n, "noc.des.", "governor.")
			if len(d1) == 0 {
				t.Fatal("no outputs digested")
			}
			for _, cmp := range []struct {
				what string
				a, b any
			}{{"counter deltas", c1, c2}, {"traced counts", n1, n2}, {"output digests", d1, d2}} {
				a, _ := json.Marshal(cmp.a)
				b, _ := json.Marshal(cmp.b)
				if !bytes.Equal(a, b) {
					t.Errorf("%s differ:\n%s\n%s", cmp.what, a, b)
				}
			}
			if tc.name == "scale-12x12" && c1["governor.decisions"] == 0 {
				t.Error("the governed scenario made no governor decisions")
			}
		})
	}
}
