// Command perfbench is the repository benchmark. It runs one workload as a
// closed loop with a single client — one op at a time, each op checked
// against the expected output — and prints every metric by name with its
// unit, ending with one JSON result line:
//
//	perfbench --workload paper-8x8 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (host time, tracing
// off). With --trace 1 it runs the same ops twice, untraced and then
// traced, and reports the per-layer metrics: time spent in each layer's
// public functions, timed from outside, and the deltas of the obs counters
// the program already keeps. BENCHMARK.md in this directory explains the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run sets up its workload; setup_s is
	// the median, so the cold first set-up and host noise do not decide it.
	setupReps = 5
	// hardStop ends the timed phase early (and says so) if a much slower
	// program would otherwise keep the run past its time limit.
	hardStop = 150 * time.Second
	// tailBeyond is how many completed ops must lie beyond the reported
	// tail percentile.
	tailBeyond = 10
)

// workload is one benchmark input set. Ops are numbered; op i and op
// i+rotation() do the same work, and timed phases run whole rotations.
type workload interface {
	// setup generates the inputs for seed, discarding earlier ones.
	setup(seed int64) error
	// rotation is the length of the op cycle.
	rotation() int
	// rotationSeconds is the host time one rotation took on the reference
	// box (2 vCPU); it sizes the timed phase from --seconds.
	rotationSeconds() float64
	// op runs op i and checks its output. A non-nil tracer receives the
	// layer timings the op exposes while it runs.
	op(i int, tr *tracer) opResult
	// replay times the public layer functions op i called, on the inputs
	// it used, into tr. It runs after op i and outside its timing.
	replay(i int, tr *tracer) error
}

// opResult is the outcome of one op.
type opResult struct {
	// label names the op's inputs in failure reports; the pipeline
	// workloads also use it as the op's digest key.
	label string
	// failure is non-empty when the op failed: an error, a deadlock or an
	// output that does not match the expected one.
	failure string
	// mismatch marks a failed output check (as opposed to an error or a
	// deadlock the check expected).
	mismatch bool
}

// phase is the measurement of one timed loop over ops.
type phase struct {
	attempted, failed, mismatches int
	wall                          time.Duration
	// opSum is the summed time of the ops alone, without replays.
	opSum time.Duration
	// lat holds the latency of every completed (non-failed) op.
	lat       []time.Duration
	cpu       time.Duration
	mem       runtime.MemStats // deltas over the phase
	truncated bool
}

var procStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) //lint:stdout the benchmark prints its result on stdout, like the cmd render paths
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	record := fs.String("record-digests", "", "write the expected output digests of one rotation of the workload to this file (merging) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *record != "" {
		if err := recordDigests(*name, *seed, *record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	want, err := loadDigests()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	wl, err := newWorkload(*name, want)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	env := environment(*name, *seed, *seconds, *trace)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "# env %s\n", envLine)

	setupS, err := timeSetup(wl, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return 1
	}
	var (
		res     phase
		metrics []metric
	)
	if *trace == 0 {
		res = timedPhase(wl, opCount(wl, float64(*seconds)), nil, stderr)
		metrics = endToEnd(res, setupS, peakRSSMB())
	} else {
		// The plain pass, the traced pass and the replays, which cost up
		// to twice the ops they follow, share the budget.
		n := opCount(wl, float64(*seconds)/4)
		plain := timedPhase(wl, n, nil, stderr)
		tr := newTracer()
		res = timedPhase(wl, n, tr, stderr)
		metrics = perLayer(tr, plain, res)
	}
	return report(stdout, res, metrics, *trace == 0)
}

// timeSetup sets the workload up setupReps times, each time generating
// its inputs and running op 0 as an untimed warm-up, and returns the median
// duration in seconds. The last setup's inputs stay in place.
func timeSetup(wl workload, seed int64) (float64, error) {
	var times []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if err := wl.setup(seed); err != nil {
			return 0, err
		}
		wl.op(0, nil) // warm-up; a failure here shows again in the timed phase
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// opCount sizes a timed phase: the whole rotations that take about
// seconds on the reference box, at least one.
func opCount(wl workload, seconds float64) int {
	rot := math.Round(seconds / wl.rotationSeconds())
	if rot < 1 {
		rot = 1
	}
	return int(rot) * wl.rotation()
}

// timedPhase runs ops 0..n-1 one at a time. With a tracer, every op is
// followed by its replay; the replay counts in wall but not in opSum.
func timedPhase(wl workload, n int, tr *tracer, stderr io.Writer) phase {
	var ph phase
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; i < n; i++ {
		if time.Since(procStart) > hardStop {
			ph.truncated = true
			fmt.Fprintf(stderr, "perfbench: timed phase stopped after %d of %d ops at the %v limit\n", i, n, hardStop)
			break
		}
		t0 := time.Now()
		r := wl.op(i, tr)
		d := time.Since(t0)
		ph.attempted++
		ph.opSum += d
		if r.failure == "" && tr != nil {
			if err := wl.replay(i, tr); err != nil {
				r.failure = "replay: " + err.Error()
			}
		}
		if r.failure != "" {
			ph.failed++
			if r.mismatch {
				ph.mismatches++
			}
			fmt.Fprintf(stderr, "perfbench: op %d %s failed: %s\n", i, r.label, r.failure)
			continue
		}
		ph.lat = append(ph.lat, d)
	}
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ph.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	ph.mem.Mallocs = m1.Mallocs - m0.Mallocs
	ph.mem.NumGC = m1.NumGC - m0.NumGC
	return ph
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(ph phase, setupS, rssMB float64) []metric {
	p50 := percentileMS(ph.lat, 50)
	tail := percentileMS(ph.lat, tailPercentile(len(ph.lat)))
	return []metric{
		{"wall_s", ph.wall.Seconds(), "s"},
		{"cpu_s", ph.cpu.Seconds(), "s"},
		{"peak_rss_mb", rssMB, "MB"},
		{"setup_s", setupS, "s"},
		{"ops_per_s", float64(len(ph.lat)) / ph.wall.Seconds(), "1/s"},
		{"op_p50_ms", p50, "ms"},
		{"op_tail_ms", tail, "ms"},
	}
}

// tailPercentile is the highest whole percentile with at least tailBeyond
// of n samples beyond it (0 when n is too small for any).
func tailPercentile(n int) float64 {
	if n <= tailBeyond {
		return 0
	}
	return math.Floor(100 * float64(n-tailBeyond) / float64(n))
}

// percentileMS returns the nearest-rank p-th percentile in milliseconds.
func percentileMS(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k]) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report prints the human-readable summary and the final JSON line, and
// returns the exit code.
func report(w io.Writer, ph phase, metrics []metric, showTail bool) int {
	completed := len(ph.lat)
	fmt.Fprintf(w, "# ops attempted=%d completed=%d failed=%d (output mismatches %d)\n",
		ph.attempted, completed, ph.failed, ph.mismatches)
	if showTail {
		p := tailPercentile(completed)
		fmt.Fprintf(w, "# op_tail_ms is p%g of %d completed ops (%d beyond it)\n",
			p, completed, completed-int(math.Ceil(p/100*float64(completed))))
	}
	if ph.truncated {
		fmt.Fprintln(w, "# timed phase truncated at the time limit")
	}
	// ops_failed_frac is carried exactly by attempted and failed; it is
	// printed, not a JSON metric, because it is 0 on healthy workloads.
	failedFrac := metric{"ops_failed_frac", float64(ph.failed) / float64(max(ph.attempted, 1)), "frac"}
	out := map[string]any{}
	for _, m := range append(metrics, failedFrac) {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
		if m != failedFrac {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   ph.mismatches == 0 && ph.attempted > 0,
		"attempted": ph.attempted,
		"failed":    ph.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
