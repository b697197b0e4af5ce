package main

import (
	"sync"
	"time"
)

// tracer collects per-layer samples during a traced pass: durations of
// calls into a layer's public functions (milliseconds per call) and
// per-op deltas of the program's obs counters.
type tracer struct {
	mu      sync.Mutex // stage callbacks may arrive from pool goroutines
	samples map[string][]float64
	counts  map[string]float64
	ops     int
}

func newTracer() *tracer {
	return &tracer{samples: map[string][]float64{}, counts: map[string]float64{}}
}

// time runs fn and records its duration under name.
func (t *tracer) time(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.add(name, d)
	return d
}

// add records one duration sample under name, in milliseconds.
func (t *tracer) add(name string, d time.Duration) { t.sample(name, float64(d)/1e6) }

// sample records one sample under name.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// count adds n to the per-op count name.
func (t *tracer) count(name string, n float64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// Per-layer metric names. Every one is reported on every workload; a
// layer a workload never calls reads 0 there.
var perLayerNames = []struct{ name, unit string }{
	{"expt.design_flow_ms", "ms"},
	{"expt.unstaged_ms", "ms"},
	{"expt.build_design_ms", "ms"},
	{"sim.probe_ms", "ms"},
	{"sim.nvfi_mesh_ms", "ms"},
	{"sim.vfi1_mesh_ms", "ms"},
	{"sim.vfi2_mesh_ms", "ms"},
	{"sim.winoc_min_hop_ms", "ms"},
	{"sim.winoc_max_wireless_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.governed_ms", "ms"},
	{"sim.pool.queue_wait_ms", "ms"},
	{"vfi.design_ms", "ms"},
	{"qp.cluster_ms", "ms"},
	{"place.min_hop_ms", "ms"},
	{"place.max_wireless_ms", "ms"},
	{"place.map_threads_ms", "ms"},
	{"noc.build_routes_ms", "ms"},
	{"noc.analytic_ms", "ms"},
	{"noc.des_plain_ms", "ms"},
	{"noc.des_instrumented_ms", "ms"},
	{"noc.des_timeline_ms", "ms"},
	{"noc.des_cycles_per_s", "1/s"},
	{"noc.des_flit_hops_per_s", "1/s"},
	{"noc.des.stalled_packets", "count/op"},
	{"governor.decisions", "count/op"},
	{"governor.transitions", "count/op"},
	{"sweep.scenario_ms", "ms"},
	{"sweep.unattributed_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles_per_op", "count"},
	{"trace_overhead_frac", "frac"},
}

// perLayer derives the per-layer metrics: medians of the traced samples,
// counts per traced op, Go runtime costs per op of the untraced pass, and
// the traced pass's op time over the untraced pass's, minus 1.
func perLayer(tr *tracer, plain, traced phase) []metric {
	ops := float64(max(traced.attempted, 1))
	plainOps := float64(max(plain.attempted, 1))
	derived := map[string]float64{
		"go.alloc_mb_per_op":  float64(plain.mem.TotalAlloc) / (1 << 20) / plainOps,
		"go.allocs_per_op":    float64(plain.mem.Mallocs) / plainOps,
		"go.gc_cycles_per_op": float64(plain.mem.NumGC) / plainOps,
	}
	if plain.opSum > 0 {
		derived["trace_overhead_frac"] = traced.opSum.Seconds()/plain.opSum.Seconds() - 1
	}
	var out []metric
	for _, l := range perLayerNames {
		v, ok := derived[l.name]
		if !ok {
			if c, isCount := tr.counts[l.name]; isCount {
				v = c / ops
			} else {
				v = median(tr.samples[l.name])
			}
		}
		out = append(out, metric{l.name, v, l.unit})
	}
	return out
}
