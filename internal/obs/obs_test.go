package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// install swaps in a fresh recorder for the test and restores the
// disabled state afterwards.
func install(t *testing.T) *Recorder {
	t.Helper()
	rec := NewRecorder()
	Install(rec)
	t.Cleanup(func() { Install(nil) })
	return rec
}

var (
	benchCounter = NewCounter("obs.test.bench_counter")
	benchGauge   = NewGauge("obs.test.bench_gauge")
)

func TestSpansAndTracks(t *testing.T) {
	rec := install(t)
	if !Enabled() {
		t.Fatal("recorder installed but Enabled() is false")
	}
	tr := TrackFor("worker-1")
	if tr == 0 {
		t.Fatal("new track got id 0 (reserved for main)")
	}
	if again := TrackFor("worker-1"); again != tr {
		t.Errorf("TrackFor not stable: %d then %d", tr, again)
	}
	sp := StartSpanOn(tr, "stage-a", "mm")
	inner := StartSpanOn(tr, "stage-a.inner", "")
	inner.End()
	sp.End()
	Instant(tr, "tick", "x")
	StartSpan("stage-b", "").End()

	events, tracks := rec.snapshot()
	if len(events) != 4 {
		t.Fatalf("%d events, want 4", len(events))
	}
	if len(tracks) != 2 || tracks[0] != "main" || tracks[1] != "worker-1" {
		t.Fatalf("tracks %v", tracks)
	}
	// spans close in LIFO order here: inner before outer
	if events[0].name != "stage-a.inner" || events[1].name != "stage-a" {
		t.Errorf("unexpected event order: %q, %q", events[0].name, events[1].name)
	}
	for _, ev := range events {
		if ev.start < 0 || ev.dur < 0 {
			t.Errorf("event %q has negative time: start=%d dur=%d", ev.name, ev.start, ev.dur)
		}
	}
}

func TestChromeTraceIsValidTraceEventJSON(t *testing.T) {
	rec := install(t)
	tr := TrackFor("pool-slot-00")
	sp := StartSpanOn(tr, "simulate", "wc/nvfi-mesh")
	time.Sleep(time.Millisecond)
	sp.End()
	Instant(tr, "mr.steal", "wc")

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			PID   int               `json:"pid"`
			TID   int32             `json:"tid"`
			TS    float64           `json:"ts"`
			Dur   float64           `json:"dur"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", out.DisplayTimeUnit)
	}
	var metas, spans, instants int
	for _, ev := range out.TraceEvents {
		switch ev.Phase {
		case "M":
			metas++
			if ev.Name != "thread_name" || ev.Args["name"] == "" {
				t.Errorf("bad metadata event %+v", ev)
			}
		case "X":
			spans++
			if ev.TS < 0 || ev.Dur <= 0 {
				t.Errorf("span %q ts=%v dur=%v", ev.Name, ev.TS, ev.Dur)
			}
			if ev.Args["detail"] != "wc/nvfi-mesh" {
				t.Errorf("span detail %q", ev.Args["detail"])
			}
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	if metas != 2 || spans != 1 || instants != 1 {
		t.Errorf("metas=%d spans=%d instants=%d, want 2/1/1", metas, spans, instants)
	}
}

func TestManifestAggregatesAndRoundTrips(t *testing.T) {
	rec := install(t)
	for i := 0; i < 3; i++ {
		sp := StartSpan("simulate", "wc")
		time.Sleep(time.Millisecond)
		sp.End()
	}
	StartSpan("probe-sim", "wc").End()

	m := rec.BuildManifest("reproduce", []string{"-summary"})
	m.Jobs = 4
	m.ConfigHash = "abc123"
	m.Cache = &CacheSummary{Hits: 5, Misses: 1, CorruptEvicted: 2}

	if len(m.Stages) != 2 {
		t.Fatalf("%d stages, want 2: %+v", len(m.Stages), m.Stages)
	}
	// stages sort by name: probe-sim before simulate
	if m.Stages[0].Name != "probe-sim" || m.Stages[1].Name != "simulate" {
		t.Errorf("stage order %q, %q", m.Stages[0].Name, m.Stages[1].Name)
	}
	sim := m.Stages[1]
	if sim.Count != 3 || sim.TotalMS < sim.MaxMS || sim.MinMS > sim.MaxMS || sim.MinMS <= 0 {
		t.Errorf("bad simulate aggregation: %+v", sim)
	}

	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Command != "reproduce" || back.Jobs != 4 || back.ConfigHash != "abc123" {
		t.Errorf("scalar fields lost: %+v", back)
	}
	if back.Cache == nil || *back.Cache != *m.Cache {
		t.Errorf("cache stats lost: %+v", back.Cache)
	}
	if len(back.Stages) != len(m.Stages) || back.Stages[1] != m.Stages[1] {
		t.Errorf("stages lost: %+v", back.Stages)
	}
	if !back.StartTime.Equal(m.StartTime) {
		t.Errorf("start time changed: %v -> %v", m.StartTime, back.StartTime)
	}
	if back.WallMS != m.WallMS {
		t.Errorf("wall time changed: %v -> %v", m.WallMS, back.WallMS)
	}
}

func TestCountersAndGauges(t *testing.T) {
	c := NewCounter("obs.test.counter")
	g := NewGauge("obs.test.gauge")
	c.Add(5)
	c.Add(2)
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if c.Value() != 7 {
		t.Errorf("counter %d, want 7", c.Value())
	}
	if got := CounterTotals()["obs.test.counter"]; got != 7 {
		t.Errorf("snapshot counter %d, want 7", got)
	}
	r := GaugeReadings()["obs.test.gauge"]
	if r.Value != 1 || r.Max != 5 {
		t.Errorf("gauge reading %+v, want value 1 max 5", r)
	}
}

// TestDisabledTelemetryAllocatesNothing is the zero-allocation guarantee:
// with no recorder installed, span, instant, track and counter calls must
// not allocate.
func TestDisabledTelemetryAllocatesNothing(t *testing.T) {
	Install(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpanOn(3, "stage", "detail")
		sp.End()
		StartSpan("stage", "detail").End()
		Instant(0, "event", "")
		TrackFor("some-track")
		benchCounter.Add(1)
		benchGauge.Add(1)
		benchGauge.Add(-1)
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry allocates %.1f times per op, want 0", allocs)
	}
}

func TestServeDebugExposesPprofAndExpvar(t *testing.T) {
	addr, srv, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars returned %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "wivfi_counters") {
		t.Error("/debug/vars does not publish wivfi_counters")
	}
	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ returned %d", resp2.StatusCode)
	}
}

// BenchmarkDisabledSpan measures the disabled fast path; run with
// -benchmem to confirm 0 B/op, 0 allocs/op.
func BenchmarkDisabledSpan(b *testing.B) {
	Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpanOn(1, "stage", "detail")
		sp.End()
	}
}

func BenchmarkDisabledCounter(b *testing.B) {
	Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCounter.Add(1)
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	rec := NewRecorder()
	Install(rec)
	defer Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpanOn(1, "stage", "detail")
		sp.End()
	}
}
