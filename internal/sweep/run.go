package sweep

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/governor"
	"wivfi/internal/noc"
	"wivfi/internal/obs"
	"wivfi/internal/place"
	"wivfi/internal/sim"
)

// Options configures one Run.
type Options struct {
	// JournalPath enables the resumable NDJSON journal: existing records
	// are skipped, new records appended. "" runs journal-less.
	JournalPath string
	// Parallelism bounds concurrent scenarios (default: GOMAXPROCS).
	Parallelism int
	// CacheDir is the design cache directory ("" disables caching).
	CacheDir string
	// MaxScenarios, when positive, truncates this run to the first N
	// not-yet-journaled scenarios (in key order) — a deterministic stand-in
	// for an interrupted sweep, used by the CI kill+resume check.
	MaxScenarios int
	// OnRecord observes every record produced or resumed, in completion
	// order (resumed records first, in key order). Called from worker
	// goroutines; must be safe for concurrent use.
	OnRecord func(rec Record, resumed bool)
	// OnProgress observes completion counts: done covers resumed plus
	// completed scenarios, total is the planned count. Same concurrency
	// contract as OnRecord.
	OnProgress func(done, total int)
}

// Result summarizes one Run.
type Result struct {
	Spec *Spec
	// Planned counts generated scenarios; Infeasible the grid points the
	// generator dropped.
	Planned    int
	Infeasible int
	// Resumed counts scenarios satisfied from the journal; Completed the
	// scenarios executed by this process (Errors of them failed; CacheHits
	// of them loaded their design from the cache). Remaining counts
	// scenarios left unrun by MaxScenarios truncation.
	Resumed   int
	Completed int
	Errors    int
	CacheHits int
	Remaining int
	// Records holds one record per finished scenario, sorted by key.
	Records []Record
	// Atlas aggregates Records; a pure function of their deterministic
	// fields, so cold and resumed sweeps of the same spec agree byte for
	// byte once all scenarios are in.
	Atlas *Atlas
}

// Run executes the sweep: expands the spec, skips journaled scenarios,
// fans the remainder over a bounded worker pool, journals each record as
// it lands and aggregates everything into the atlas. Scenario failures are
// recorded, not fatal; Run errors only on spec, journal or I/O problems.
// A failed journal append does not stop the other scenarios; once all
// have run, Run returns the append error of the lowest-indexed scenario.
func Run(spec *Spec, opts Options) (*Result, error) {
	scenarios, infeasible, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	plannedCounter.Add(int64(len(scenarios)))

	done := map[string]Record{}
	var journal *Journal
	if opts.JournalPath != "" {
		if done, err = LoadJournal(opts.JournalPath); err != nil {
			return nil, err
		}
		if journal, err = OpenJournal(opts.JournalPath); err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	res := &Result{Spec: spec, Planned: len(scenarios), Infeasible: infeasible}
	records := make([]Record, 0, len(scenarios))
	var todo []Scenario
	for _, sc := range scenarios {
		if rec, ok := done[sc.Key()]; ok {
			records = append(records, rec)
			res.Resumed++
			skippedCounter.Add(1)
			if opts.OnRecord != nil {
				opts.OnRecord(rec, true)
			}
			continue
		}
		todo = append(todo, sc)
	}
	if opts.MaxScenarios > 0 && len(todo) > opts.MaxScenarios {
		res.Remaining = len(todo) - opts.MaxScenarios
		todo = todo[:opts.MaxScenarios]
	}
	if opts.OnProgress != nil {
		opts.OnProgress(res.Resumed, res.Planned)
	}

	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	pool := sim.NewPool(par)
	fresh := make([]Record, len(todo))
	var completed atomic.Int64 // progress counter across workers
	err = pool.Each(len(todo), func(i int) (string, string) { return "sweep:scenario", todo[i].Label() }, func(i int) error {
		inFlightGauge.Add(1)
		defer inFlightGauge.Add(-1)
		rec := runScenario(todo[i], opts.CacheDir)
		fresh[i] = rec
		completedCounter.Add(1)
		if rec.Error != "" {
			errorCounter.Add(1)
		}
		if rec.DESDeviation > spec.AnalyticTolerance {
			outlierCounter.Add(1)
		}
		obs.Logf("sweep: %s done in %d ms (cache_hit=%v err=%q)", todo[i].Label(), rec.WallMS, rec.CacheHit, rec.Error)
		var jerr error
		if journal != nil {
			jerr = journal.Append(rec)
		}
		n := res.Resumed + int(completed.Add(1))
		if opts.OnRecord != nil {
			opts.OnRecord(rec, false)
		}
		if opts.OnProgress != nil {
			opts.OnProgress(n, res.Planned)
		}
		return jerr
	})
	if err != nil {
		return nil, err
	}

	for _, rec := range fresh {
		records = append(records, rec)
		res.Completed++
		if rec.Error != "" {
			res.Errors++
		}
		if rec.CacheHit {
			res.CacheHits++
		}
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Key < records[j].Key })
	res.Records = records
	res.Atlas = BuildAtlas(spec.Name, records, spec.AnalyticTolerance)
	return res, nil
}

// Probe shape of the DES-vs-analytic fidelity check: enough packets over a
// long-enough horizon for a stable average at a light, contention-lean
// load (total chip injection = probePackets*probeFlits/probeHorizon = 1
// flit/cycle), where the calibrated analytic model is expected to track
// the cycle-accurate DES closely on every platform shape.
const (
	probePackets = 1500
	probeFlits   = 4
	probeHorizon = 6000
	probeSeed    = 1
)

// runScenario executes one scenario end to end and always returns a
// record; failures land in Record.Error so the sweep keeps going and the
// journal remembers deterministic failures.
func runScenario(sc Scenario, cacheDir string) Record {
	start := time.Now() //lint:wallclock journal wall_ms is runtime observability, excluded from the atlas
	cfg := sc.Config()
	rec := Record{
		Schema:     JournalSchemaVersion,
		Key:        sc.Key(),
		ConfigHash: expt.ConfigHash(cfg),
		App:        sc.App,
		Rows:       sc.Rows,
		Cols:       sc.Cols,
		Islands:    sc.Islands,
		Sizes:      sc.Sizes,
		Margin:     sc.Margin,
		Policy:     sc.Policy,
		CapW:       sc.CapW,
		Tier:       sc.Tier,
	}
	if rec.Policy == "" {
		rec.Policy = "none"
	}
	if rec.Tier == "" {
		rec.Tier = TierMesh
	}
	fail := func(err error) Record {
		rec.Error = err.Error()
		rec.WallMS = time.Since(start).Milliseconds() //lint:wallclock journal wall_ms is runtime observability, excluded from the atlas
		return rec
	}
	if reason := sc.infeasible(); reason != "" {
		return fail(fmt.Errorf("sweep: infeasible scenario: %s", reason))
	}
	app, err := apps.ByName(sc.App)
	if err != nil {
		return fail(err)
	}

	// Design flow (probe + clustering + V/F assignment), deduplicated
	// across sweeps and the figure suite through the config-keyed cache.
	// The inner pool is nil: the sweep's own pool slot already accounts for
	// this scenario's compute.
	w, prof, plan, hit, err := expt.BuildDesign(cfg, app, nil, cacheDir)
	if err != nil {
		return fail(err)
	}
	rec.CacheHit = hit

	baseSys, err := sim.NVFIMeshMapped(cfg.Build, prof.Traffic)
	if err != nil {
		return fail(err)
	}
	baseRun, err := sim.Run(w, baseSys)
	if err != nil {
		return fail(err)
	}
	meshSys, err := sim.VFIMesh(cfg.Build, plan.VFI2, prof.Traffic)
	if err != nil {
		return fail(err)
	}
	var run *sim.RunResult
	if sc.Policy == "" || sc.Policy == "none" {
		run, err = sim.Run(w, meshSys)
	} else {
		var pol governor.Policy
		pol, err = governor.ParsePolicy(sc.Policy)
		if err == nil {
			var sum governor.Summary
			run, sum, err = expt.GovernedSystem(cfg, w, plan, meshSys, pol, sc.CapW)
			rec.Transitions = sum.Transitions
		}
	}
	if err != nil {
		return fail(err)
	}
	rec.ExecSeconds = run.Report.ExecSeconds
	rec.TotalJ = run.Report.TotalJ()
	rec.EDP = run.Report.EDP()
	rec.ExecRatio, rec.EnergyRatio, rec.EDPRatio = run.Report.Relative(baseRun.Report)

	if sc.Tier == TierWiNoC {
		wSys, err := sim.VFIWiNoC(cfg.Build, plan.VFI2, prof.Traffic, sim.MaxWireless)
		if err != nil {
			return fail(err)
		}
		wRun, err := sim.Run(w, wSys)
		if err != nil {
			return fail(err)
		}
		_, _, rec.WiNoCEDPRatio = wRun.Report.Relative(baseRun.Report)
	}

	if err := probeFidelity(&rec, cfg, prof.Traffic, meshSys); err != nil {
		return fail(err)
	}
	rec.WallMS = time.Since(start).Milliseconds() //lint:wallclock journal wall_ms is runtime observability, excluded from the atlas
	return rec
}

// probeFidelity cross-checks the analytic latency model against the
// cycle-accurate DES on the scenario's own mesh system and mapped traffic
// pattern, at a fixed light probe load. Both simulators see the same
// switch-level traffic distribution; the recorded deviation is the
// relative gap in average packet latency. Fully deterministic: fixed seed,
// fixed load, simulated-time DES.
func probeFidelity(rec *Record, cfg expt.Config, traffic [][]float64, meshSys *sim.System) error {
	tiles := place.MapTraffic(traffic, meshSys.Mapping)
	total := 0.0
	for _, row := range tiles {
		for _, f := range row {
			total += f
		}
	}
	if total <= 0 {
		return nil // no communication to probe
	}
	// Scale the matrix so analytic and DES run at the identical total
	// injection rate of probePackets*probeFlits/probeHorizon flits/cycle.
	rate := float64(probePackets*probeFlits) / float64(probeHorizon)
	scaled := make([][]float64, len(tiles))
	for i, row := range tiles {
		scaled[i] = make([]float64, len(row))
		for j, f := range row {
			scaled[i][j] = f * rate / total
		}
	}
	an, err := noc.Analytic(meshSys.Routes, scaled, cfg.Build.NetModel, cfg.Build.Analytic)
	if err != nil {
		return fmt.Errorf("sweep: analytic probe: %w", err)
	}
	rng := rand.New(rand.NewSource(probeSeed))
	sampler := newSampler(tiles, total)
	pkts := make([]noc.Packet, probePackets)
	for i := range pkts {
		s, d := sampler.pick(rng)
		pkts[i] = noc.Packet{ID: i, Src: s, Dst: d, Flits: probeFlits, Inject: rng.Int63n(probeHorizon + 1)}
	}
	des, err := noc.RunDES(meshSys.Routes, pkts, cfg.Build.NetModel, noc.DefaultDESConfig())
	if err != nil {
		return fmt.Errorf("sweep: DES probe: %w", err)
	}
	rec.AnalyticLatencyCycles = an.AvgLatencyCycles
	rec.DESLatencyCycles = des.AvgLatencyCycles
	if an.AvgLatencyCycles > 0 {
		dev := des.AvgLatencyCycles/an.AvgLatencyCycles - 1
		if dev < 0 {
			dev = -dev
		}
		rec.DESDeviation = dev
	}
	return nil
}

// sampler draws (src, dst) pairs proportional to a traffic matrix, one
// early-exiting pass over a row-major flattened copy per draw.
type sampler struct {
	n     int
	flat  []float64
	total float64
}

func newSampler(m [][]float64, total float64) *sampler {
	s := &sampler{n: len(m), flat: make([]float64, 0, len(m)*len(m)), total: total}
	for _, row := range m {
		s.flat = append(s.flat, row...)
	}
	return s
}

func (s *sampler) pick(rng *rand.Rand) (src, dst int) {
	r := rng.Float64() * s.total
	for k, f := range s.flat {
		r -= f
		if r <= 0 {
			return k / s.n, k % s.n
		}
	}
	return s.n - 1, s.n - 1
}
