package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/governor"
	"wivfi/internal/noc"
	"wivfi/internal/obs"
	"wivfi/internal/place"
	"wivfi/internal/platform"
	"wivfi/internal/sim"
	"wivfi/internal/sweep"
	"wivfi/internal/vfi"
)

// appRotation returns expt.AppOrder with every app after the first in a
// seed-chosen order. The first app stays first, so op 0 — the warm-up op
// inside setup_s — does the same work for every seed.
func appRotation(seed int64) ([]*apps.App, error) {
	order := make([]*apps.App, 0, len(expt.AppOrder))
	for _, name := range expt.AppOrder {
		a, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		order = append(order, a)
	}
	rng := rand.New(rand.NewSource(seed))
	rest := order[1:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return order, nil
}

// paperWorkload is paper-8x8: one op is one cold full pipeline for the
// paper configuration — probe, VFI design and all five systems — on a
// size-1 pool with no design cache.
type paperWorkload struct {
	want  *digests
	cfg   expt.Config
	pool  *sim.Pool
	order []*apps.App
	last  *expt.Pipeline
}

func (w *paperWorkload) rotation() int            { return len(expt.AppOrder) }
func (w *paperWorkload) rotationSeconds() float64 { return 1.9 }

func (w *paperWorkload) setup(seed int64) error {
	order, err := appRotation(seed)
	if err != nil {
		return err
	}
	w.cfg = expt.DefaultConfig()
	w.pool = sim.NewPool(1)
	w.order = order
	return nil
}

// topStages are the observer stages that partition a pipeline build;
// probe-sim and vfi-design nest inside design-flow.
var topStages = map[string]string{
	"design-flow":            "expt.design_flow_ms",
	"sim:nvfi-mesh":          "sim.nvfi_mesh_ms",
	"sim:vfi1-mesh":          "sim.vfi1_mesh_ms",
	"sim:vfi2-mesh":          "sim.vfi2_mesh_ms",
	"sim:winoc-min-hop":      "sim.winoc_min_hop_ms",
	"sim:winoc-max-wireless": "sim.winoc_max_wireless_ms",
}

var nestedStages = map[string]string{
	"probe-sim":  "sim.probe_ms",
	"vfi-design": "vfi.design_ms",
}

func (w *paperWorkload) op(i int, tr *tracer) opResult {
	app := w.order[i%len(w.order)]
	res := opResult{label: "paper-8x8/" + app.Name}
	var (
		ob     *expt.BuildObserver
		mu     sync.Mutex
		starts = map[string]time.Time{}
		staged time.Duration
		before map[string]int64
	)
	if tr != nil {
		before = obs.CounterTotals()
		ob = &expt.BuildObserver{Stage: func(stage, state string) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			if state == "start" {
				starts[stage] = now
				return
			}
			d := now.Sub(starts[stage])
			if name, ok := topStages[stage]; ok {
				staged += d
				tr.add(name, d)
			} else if name, ok := nestedStages[stage]; ok {
				tr.add(name, d)
			}
		}}
	}
	t0 := time.Now()
	pl, err := expt.BuildPipelineObserved(w.cfg, app, w.pool, "", ob)
	total := time.Since(t0)
	w.last = pl
	if tr != nil {
		mu.Lock()
		tr.add("expt.unstaged_ms", total-staged)
		mu.Unlock()
		after := obs.CounterTotals()
		tr.add("sim.pool.queue_wait_ms", time.Duration(after[sim.MetricPoolQueueWaitNS]-before[sim.MetricPoolQueueWaitNS]))
	}
	if err != nil {
		res.failure = err.Error()
		return res
	}
	return w.want.check(res, res.label, pipelineDigest(pl))
}

// replay times the layer functions of the pipeline's design and WiNoC
// construction on the inputs the last op used.
func (w *paperWorkload) replay(i int, tr *tracer) error {
	pl := w.last
	b := w.cfg.Build
	if err := replayDesign(tr, pl.Profile, w.cfg.VFI); err != nil {
		return err
	}
	opts := winocPlaceOptions(b)
	var (
		minHop place.Result
		err    error
	)
	tr.time("place.map_threads_ms", func() {
		_, err = place.MapThreadsMinDistance(b.Chip, pl.Plan.VFI2.Assign, pl.Profile.Traffic, b.Place.Seed, b.Place.MappingSweeps)
	})
	if err != nil {
		return err
	}
	tr.time("place.min_hop_ms", func() {
		minHop, err = place.MinHopCount(b.Chip, pl.Plan.VFI2.Assign, pl.Profile.Traffic, opts)
	})
	if err != nil {
		return err
	}
	tr.time("place.max_wireless_ms", func() {
		_, err = place.MaxWirelessUtil(b.Chip, pl.Plan.VFI2.Assign, pl.Profile.Traffic, opts)
	})
	if err != nil {
		return err
	}
	tr.time("noc.build_routes_ms", func() { _, err = noc.BuildRoutes(minHop.Topology, b.LinkCosts, noc.UpDown) })
	if err != nil {
		return err
	}
	return replayMesh(tr, b, pl.Workload, pl.Plan.VFI2, pl.Profile.Traffic)
}

// replayDesign times the VFI design and the clustering QP inside it.
func replayDesign(tr *tracer, prof platform.Profile, opts vfi.Options) error {
	var err error
	tr.time("vfi.design_ms", func() { _, err = vfi.Design(prof, opts) })
	if err != nil {
		return err
	}
	tr.time("qp.cluster_ms", func() { _, _, err = vfi.Cluster(prof, opts) })
	return err
}

// replayMesh builds the VFI mesh system untimed, then times one analytic
// network evaluation at the profiled traffic rates and one static run.
func replayMesh(tr *tracer, b sim.BuildConfig, wl *sim.Workload, cfg platform.VFIConfig, traffic [][]float64) error {
	sys, err := sim.VFIMesh(b, cfg, traffic)
	if err != nil {
		return err
	}
	// The profile's traffic is in flits per microsecond; the analytic
	// model takes flits per network cycle.
	rates := place.MapTraffic(traffic, sys.Mapping)
	perCycle := 1 / (b.NetClockGHz * 1e3)
	for _, row := range rates {
		for j := range row {
			row[j] *= perCycle
		}
	}
	tr.time("noc.analytic_ms", func() { _, err = noc.Analytic(sys.Routes, rates, b.NetModel, b.Analytic) })
	if err != nil {
		return err
	}
	tr.time("sim.run_ms", func() { _, err = sim.Run(wl, sys) })
	return err
}

// winocPlaceOptions are the placement options sim.VFIWiNoC derives.
func winocPlaceOptions(b sim.BuildConfig) place.Options {
	opts := b.Place
	opts.SmallWorld = b.SmallWorld
	opts.Costs = b.LinkCosts
	opts.Routing = noc.UpDown
	return opts
}

// scaleWorkload is scale-12x12: one op is one cold sweep.Run of a single
// scenario — 12x12 mesh, 4 equal islands, WiNoC tier, util governor — on
// a size-1 pool with no cache or journal.
type scaleWorkload struct {
	want      *digests
	specs     []*sweep.Spec
	scenarios []sweep.Scenario // the one scenario of each spec
	last      sweep.Scenario
	total     time.Duration
}

const (
	scaleMesh   = "12x12"
	scalePolicy = "util"
)

func (w *scaleWorkload) rotation() int            { return len(expt.AppOrder) }
func (w *scaleWorkload) rotationSeconds() float64 { return 6.5 }

func (w *scaleWorkload) setup(seed int64) error {
	order, err := appRotation(seed)
	if err != nil {
		return err
	}
	w.specs, w.scenarios = w.specs[:0], w.scenarios[:0]
	for _, a := range order {
		spec := &sweep.Spec{
			Name:     "perfbench-" + a.Name,
			Meshes:   []string{scaleMesh},
			Islands:  []sweep.IslandAxis{{Count: 4}},
			Apps:     []string{a.Name},
			Policies: []string{scalePolicy},
			Tier:     sweep.TierWiNoC,
		}
		if err := spec.Validate(); err != nil {
			return err
		}
		scs, _, err := spec.Generate()
		if err != nil {
			return err
		}
		if len(scs) != 1 {
			return fmt.Errorf("scale-12x12 spec for %s yields %d scenarios, want 1", a.Name, len(scs))
		}
		w.specs = append(w.specs, spec)
		w.scenarios = append(w.scenarios, scs[0])
	}
	return nil
}

func (w *scaleWorkload) op(i int, tr *tracer) opResult {
	spec := w.specs[i%len(w.specs)]
	w.last = w.scenarios[i%len(w.specs)]
	res := opResult{label: "scale-12x12/" + spec.Apps[0]}
	var before map[string]int64
	if tr != nil {
		before = obs.CounterTotals()
	}
	t0 := time.Now()
	out, err := sweep.Run(spec, sweep.Options{Parallelism: 1})
	w.total = time.Since(t0)
	if tr != nil {
		after := obs.CounterTotals()
		tr.add("sweep.scenario_ms", w.total)
		tr.add("sim.pool.queue_wait_ms", time.Duration(after[sim.MetricPoolQueueWaitNS]-before[sim.MetricPoolQueueWaitNS]))
		for _, name := range []string{governor.MetricDecisions, governor.MetricTransitions} {
			tr.count(name, float64(after[name]-before[name]))
		}
	}
	if err != nil {
		res.failure = err.Error()
		return res
	}
	if len(out.Records) != 1 {
		res.failure = fmt.Sprintf("sweep ran %d scenarios, want 1", len(out.Records))
		return res
	}
	rec := out.Records[0]
	if rec.Error != "" {
		res.failure = rec.Error
		return res
	}
	return w.want.check(res, res.label, recordDigest(rec))
}

// replay re-runs the last scenario's steps through their public
// functions, timing each; sweep.unattributed_ms is the scenario time the
// timed steps do not account for (its DES fidelity probe, bookkeeping).
func (w *scaleWorkload) replay(i int, tr *tracer) error {
	sc := w.last
	cfg := sc.Config()
	b := cfg.Build
	app, err := apps.ByName(sc.App)
	if err != nil {
		return err
	}
	var (
		wl         *sim.Workload
		prof       platform.Profile
		plan       vfi.Plan
		attributed time.Duration
	)
	attributed += tr.time("expt.build_design_ms", func() { wl, prof, plan, _, err = expt.BuildDesign(cfg, app, nil, "") })
	if err != nil {
		return err
	}
	tr.time("sim.probe_ms", func() {
		var sys *sim.System
		if sys, err = sim.NVFIMesh(b); err == nil {
			_, err = sim.Run(wl, sys)
		}
	})
	if err != nil {
		return err
	}
	if err := replayDesign(tr, prof, cfg.VFI); err != nil {
		return err
	}
	attributed += tr.time("sim.nvfi_mesh_ms", func() {
		var sys *sim.System
		if sys, err = sim.NVFIMeshMapped(b, prof.Traffic); err == nil {
			_, err = sim.Run(wl, sys)
		}
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	meshSys, err := sim.VFIMesh(b, plan.VFI2, prof.Traffic)
	attributed += time.Since(t0)
	if err != nil {
		return err
	}
	pol, err := governor.ParsePolicy(scalePolicy)
	if err != nil {
		return err
	}
	attributed += tr.time("sim.governed_ms", func() { _, _, err = expt.GovernedSystem(cfg, wl, plan, meshSys, pol, sc.CapW) })
	if err != nil {
		return err
	}
	attributed += tr.time("sim.winoc_max_wireless_ms", func() {
		var sys *sim.System
		if sys, err = sim.VFIWiNoC(b, plan.VFI2, prof.Traffic, sim.MaxWireless); err == nil {
			_, err = sim.Run(wl, sys)
		}
	})
	if err != nil {
		return err
	}
	tr.add("sweep.unattributed_ms", w.total-attributed)

	tr.time("place.map_threads_ms", func() {
		_, err = place.MapThreadsMinDistance(b.Chip, plan.VFI2.Assign, prof.Traffic, b.Place.Seed, b.Place.MappingSweeps)
	})
	if err != nil {
		return err
	}
	opts := winocPlaceOptions(b)
	var maxWireless place.Result
	tr.time("place.max_wireless_ms", func() {
		maxWireless, err = place.MaxWirelessUtil(b.Chip, plan.VFI2.Assign, prof.Traffic, opts)
	})
	if err != nil {
		return err
	}
	tr.time("noc.build_routes_ms", func() { _, err = noc.BuildRoutes(maxWireless.Topology, b.LinkCosts, noc.UpDown) })
	if err != nil {
		return err
	}
	return replayMesh(tr, b, wl, plan.VFI2, prof.Traffic)
}
