package obs

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"sim.pool.queue-wait": "wivfi_sim_pool_queue_wait",
		"expt.cache.hits":     "wivfi_expt_cache_hits",
		"Already_OK9":         "wivfi_Already_OK9",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	c := NewCounter("promtest.requests")
	c.Add(41)
	c.Add(1)
	g := NewGauge("promtest.in-flight")
	g.Add(5)
	g.Add(-2)

	var b strings.Builder
	WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE wivfi_promtest_requests counter\nwivfi_promtest_requests 42\n",
		"# TYPE wivfi_promtest_in_flight gauge\nwivfi_promtest_in_flight 3\n",
		"# TYPE wivfi_promtest_in_flight_max gauge\nwivfi_promtest_in_flight_max 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// every sample line is a legal prometheus pair (histogram buckets may
	// carry an le label), every family has HELP and TYPE, and families are
	// sorted
	sample := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{le="(\+Inf|\d+)"\})? -?\d+$`)
	var families []string
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	for i, ln := range lines {
		if name, ok := strings.CutPrefix(ln, "# TYPE "); ok {
			families = append(families, strings.Fields(name)[0])
			continue
		}
		if strings.HasPrefix(ln, "# HELP ") {
			continue
		}
		if !sample.MatchString(ln) {
			t.Errorf("line %d not a valid sample: %q", i, ln)
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Errorf("families not sorted: %v", families)
	}
	if len(families) == 0 {
		t.Fatal("no families rendered")
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	RegisterHistogram("promtest.latency_ms", func() HistogramSnapshot {
		return HistogramSnapshot{
			Count: 6,
			Sum:   112,
			Buckets: []HistogramBucket{
				{UpperBound: 1, Count: 2},
				{UpperBound: 8, Count: 3},
				{UpperBound: 64, Count: 1},
			},
		}
	})
	var b strings.Builder
	WritePrometheus(&b)
	out := b.String()

	want := "# HELP wivfi_promtest_latency_ms Distribution of promtest.latency_ms.\n" +
		"# TYPE wivfi_promtest_latency_ms histogram\n" +
		"wivfi_promtest_latency_ms_bucket{le=\"1\"} 2\n" +
		"wivfi_promtest_latency_ms_bucket{le=\"8\"} 5\n" +
		"wivfi_promtest_latency_ms_bucket{le=\"64\"} 6\n" +
		"wivfi_promtest_latency_ms_bucket{le=\"+Inf\"} 6\n" +
		"wivfi_promtest_latency_ms_sum 112\n" +
		"wivfi_promtest_latency_ms_count 6\n"
	if !strings.Contains(out, want) {
		t.Errorf("histogram family not rendered cumulatively:\nwant:\n%s\ngot:\n%s", want, out)
	}

	// re-registering the same name replaces the provider instead of
	// duplicating the family
	RegisterHistogram("promtest.latency_ms", func() HistogramSnapshot {
		return HistogramSnapshot{Count: 1, Sum: 3, Buckets: []HistogramBucket{{UpperBound: 4, Count: 1}}}
	})
	b.Reset()
	WritePrometheus(&b)
	if n := strings.Count(b.String(), "# TYPE wivfi_promtest_latency_ms histogram"); n != 1 {
		t.Errorf("replaced histogram rendered %d times, want 1", n)
	}
	if !strings.Contains(b.String(), "wivfi_promtest_latency_ms_count 1\n") {
		t.Errorf("replacement provider not used:\n%s", b.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	c := NewCounter("promtest.endpoint")
	c.Add(7)
	addr, srv, err := StartDebugServer("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "wivfi_promtest_endpoint 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
}

// TestStartDebugServerShutdown is the embeddability contract wivfid relies
// on: the returned handle stops the debug server cleanly, the port is
// released, and a second server can start afterwards.
func TestStartDebugServerShutdown(t *testing.T) {
	addr, srv, err := StartDebugServer("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("server not serving before shutdown: %v", err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
			break // connection refused: listener is gone
		}
		if time.Now().After(deadline) {
			t.Fatal("server still serving after Close")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// the address is free again for a fresh server
	again, srv2, err := StartDebugServer(addr)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	if again != addr {
		t.Errorf("rebound to %s, want %s", again, addr)
	}
}
