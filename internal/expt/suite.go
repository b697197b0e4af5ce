// Package expt regenerates every table and figure of the paper's evaluation
// (Section 7) on the simulated platform: Table 1 (datasets), Table 2 (V/F
// assignments), Fig. 2 (utilization profiles), Fig. 4 (VFI 1 vs VFI 2),
// Fig. 5 (bottleneck utilization), Fig. 6 (placement strategies), Fig. 7
// (execution-time breakdown), Fig. 8 (full-system EDP), the
// (k_intra, k_inter) sweep of Section 7.2 and the task-stealing case study
// of Section 4.3.
//
// A Suite caches the expensive per-application pipeline — profiling run,
// VFI design, system construction and the simulation of every system — so
// the experiment drivers and benchmarks can share results. Distinct
// benchmarks build concurrently (duplicate requests for the same benchmark
// coalesce onto one build), and within a pipeline the independent system
// simulations fan out over a bounded worker pool shared by the whole
// suite. All simulations are deterministic, so results are byte-identical
// whatever the parallelism level.
package expt

import (
	"fmt"
	"sync"
	"time"

	"wivfi/internal/apps"
	"wivfi/internal/obs"
	"wivfi/internal/platform"
	"wivfi/internal/sim"
	"wivfi/internal/vfi"
)

// Config bundles the platform and design-flow parameters.
type Config struct {
	Build sim.BuildConfig
	VFI   vfi.Options
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{Build: sim.DefaultBuildConfig(), VFI: vfi.DefaultOptions()}
}

// Pipeline holds everything computed for one benchmark: the design flow of
// Fig. 3 followed by the simulation of every system variant.
type Pipeline struct {
	App      *apps.App
	Workload *sim.Workload
	// Profile is the non-VFI characterization (step 1 of Fig. 3).
	Profile platform.Profile
	// Plan is the VFI design (clustering, V/F assignment, re-assignment).
	Plan vfi.Plan
	// Baseline is the NVFI mesh run every figure normalizes against.
	Baseline *sim.RunResult
	// VFI1Mesh / VFI2Mesh are the mesh systems before and after the
	// bottleneck V/F re-assignment.
	VFI1Mesh *sim.RunResult
	VFI2Mesh *sim.RunResult
	// WiNoC holds the VFI 2 WiNoC runs per placement strategy.
	WiNoC map[sim.Strategy]*sim.RunResult
	// BestStrategy is the strategy with the lower full-system EDP — the
	// per-application choice Section 6 prescribes.
	BestStrategy sim.Strategy
	// FromCache reports whether the profile and VFI plan were loaded from
	// the on-disk design cache rather than recomputed.
	FromCache bool
}

// BestWiNoC returns the WiNoC run under the chosen strategy.
func (p *Pipeline) BestWiNoC() *sim.RunResult { return p.WiNoC[p.BestStrategy] }

// buildHook, when non-nil, is invoked at the start of every pipeline build
// (after the suite lock is released). Test seam for the singleflight
// regression tests; never set outside tests.
var buildHook func(name string)

// BuildObserver receives progress callbacks from one pipeline build — the
// request-shaped entry point the serving layer streams from. Both fields
// are optional; set callbacks must be safe for concurrent use, since the
// five system simulations report from pool goroutines.
type BuildObserver struct {
	// Stage is called with state "start" and "done" around every pipeline
	// stage: design-flow, probe-sim, vfi-design and the five sim:* runs.
	// Stage names match the obs span names, so streamed events and trace
	// artifacts agree.
	Stage func(stage, state string)
	// Cache reports the design-cache classification of the build exactly
	// once, before any recomputation starts.
	Cache func(hit bool)
}

// stage fires the Stage callback on a non-nil observer.
func (ob *BuildObserver) stage(stage, state string) {
	if ob != nil && ob.Stage != nil {
		ob.Stage(stage, state)
	}
}

// cache fires the Cache callback on a non-nil observer.
func (ob *BuildObserver) cache(hit bool) {
	if ob != nil && ob.Cache != nil {
		ob.Cache(hit)
	}
}

// BuildDesign runs the design flow alone — probe simulation, clustering
// and V/F assignment, or a load from the config-keyed disk cache — without
// simulating the derived systems. It is the entry point for callers (the
// sweep orchestrator) that compose their own system set from the returned
// profile and plan while still deduplicating design work across scenarios
// through the shared cache. The returned workload is the one the profile
// was characterized with; fromCache reports a design-cache hit.
func BuildDesign(cfg Config, app *apps.App, pool *sim.Pool, cacheDir string) (*sim.Workload, platform.Profile, vfi.Plan, bool, error) {
	w, err := app.Workload(cfg.Build.Chip.NumCores())
	if err != nil {
		return nil, platform.Profile{}, vfi.Plan{}, false, fmt.Errorf("expt: %s workload: %w", app.Name, err)
	}
	prof, plan, cached, err := designFlow(cfg, app, w, pool, cacheDir, nil, nil)
	if err != nil {
		return nil, platform.Profile{}, vfi.Plan{}, false, err
	}
	return w, prof, plan, cached, nil
}

// BuildPipelineObserved is the serving-layer entry point: one pipeline
// build for an arbitrary request Config, fanned out over the caller's
// shared pool, consulting the design cache at cacheDir ("" disables), with
// per-stage progress delivered through ob (nil for none).
func BuildPipelineObserved(cfg Config, app *apps.App, pool *sim.Pool, cacheDir string, ob *BuildObserver) (*Pipeline, error) {
	return buildPipeline(cfg, app, pool, cacheDir, nil, ob)
}

// buildPipeline runs the design flow and then fans the five independent
// system simulations (baseline, VFI 1 mesh, VFI 2 mesh, two WiNoC
// placements) out over the pool. A nil pool runs everything inline.
func buildPipeline(cfg Config, app *apps.App, pool *sim.Pool, cacheDir string, stats *cacheStats, ob *BuildObserver) (*Pipeline, error) {
	if buildHook != nil {
		buildHook(app.Name)
	}
	// One orchestration track per benchmark; the leaf simulations below
	// trace onto per-pool-slot tracks instead.
	track := int32(0)
	if obs.Enabled() {
		track = obs.TrackFor("pipeline-" + app.Name)
	}
	pspan := obs.StartSpanOn(track, "pipeline", app.Name)
	defer pspan.End()
	w, err := app.Workload(cfg.Build.Chip.NumCores())
	if err != nil {
		return nil, fmt.Errorf("expt: %s workload: %w", app.Name, err)
	}

	// Steps 1-4 (Fig. 3): characterize on the plain non-VFI system, then
	// cluster, assign V/F and re-assign for bottlenecks — or reload both
	// artifacts from the config-keyed disk cache.
	ob.stage("design-flow", "start")
	dspan := obs.StartSpanOn(track, "design-flow", app.Name)
	prof, plan, cached, err := designFlow(cfg, app, w, pool, cacheDir, stats, ob)
	dspan.End()
	ob.stage("design-flow", "done")
	if err != nil {
		return nil, err
	}

	pl := &Pipeline{
		App:       app,
		Workload:  w,
		Profile:   prof,
		Plan:      plan,
		WiNoC:     map[sim.Strategy]*sim.RunResult{},
		FromCache: cached,
	}

	// The five remaining simulations are mutually independent: they each
	// construct their own system from (cfg, prof, plan) and write to a
	// distinct destination, so they can run concurrently in any order
	// without changing the result.
	var wiMinHop, wiMaxWireless *sim.RunResult
	jobs := []struct {
		stage string
		dst   **sim.RunResult
		build func() (*sim.System, error)
	}{
		{"sim:nvfi-mesh", &pl.Baseline, func() (*sim.System, error) { return sim.NVFIMeshMapped(cfg.Build, prof.Traffic) }},
		{"sim:vfi1-mesh", &pl.VFI1Mesh, func() (*sim.System, error) { return sim.VFIMesh(cfg.Build, plan.VFI1, prof.Traffic) }},
		{"sim:vfi2-mesh", &pl.VFI2Mesh, func() (*sim.System, error) { return sim.VFIMesh(cfg.Build, plan.VFI2, prof.Traffic) }},
		{"sim:winoc-min-hop", &wiMinHop, func() (*sim.System, error) {
			return sim.VFIWiNoC(cfg.Build, plan.VFI2, prof.Traffic, sim.MinHop)
		}},
		{"sim:winoc-max-wireless", &wiMaxWireless, func() (*sim.System, error) {
			return sim.VFIWiNoC(cfg.Build, plan.VFI2, prof.Traffic, sim.MaxWireless)
		}},
	}
	err = pool.Each(len(jobs), func(i int) (string, string) { return jobs[i].stage, app.Name }, func(i int) error {
		job := jobs[i]
		ob.stage(job.stage, "start")
		defer ob.stage(job.stage, "done")
		sys, err := job.build()
		if err != nil {
			return err
		}
		*job.dst, err = sim.Run(w, sys)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("expt: %s: %w", app.Name, err)
	}

	pl.WiNoC[sim.MinHop] = wiMinHop
	pl.WiNoC[sim.MaxWireless] = wiMaxWireless
	pl.BestStrategy = sim.MinHop
	if pl.WiNoC[sim.MaxWireless].Report.EDP() < pl.WiNoC[sim.MinHop].Report.EDP() {
		pl.BestStrategy = sim.MaxWireless
	}
	return pl, nil
}

// designFlow produces the profile and VFI plan, consulting the disk cache
// when cacheDir is non-empty. Cache writes are best-effort: a read-only or
// full disk degrades to recomputation, never to failure.
func designFlow(cfg Config, app *apps.App, w *sim.Workload, pool *sim.Pool, cacheDir string, stats *cacheStats, ob *BuildObserver) (platform.Profile, vfi.Plan, bool, error) {
	if cacheDir != "" {
		prof, plan, outcome := loadDesign(cacheDir, cfg, app.Name)
		stats.count(outcome)
		if outcome == cacheHit {
			ob.cache(true)
			return prof, plan, true, nil
		}
	}
	ob.cache(false)
	var prof platform.Profile
	var probeErr error
	pool.DoNamed("probe-sim", app.Name, func() {
		ob.stage("probe-sim", "start")
		defer ob.stage("probe-sim", "done")
		probeSys, err := sim.NVFIMesh(cfg.Build)
		if err != nil {
			probeErr = err
			return
		}
		probeRes, err := sim.Run(w, probeSys)
		if err != nil {
			probeErr = fmt.Errorf("expt: %s profiling run: %w", app.Name, err)
			return
		}
		prof = probeRes.Profile()
	})
	if probeErr != nil {
		return platform.Profile{}, vfi.Plan{}, false, probeErr
	}
	var plan vfi.Plan
	var designErr error
	pool.DoNamed("vfi-design", app.Name, func() {
		ob.stage("vfi-design", "start")
		defer ob.stage("vfi-design", "done")
		plan, designErr = vfi.Design(prof, cfg.VFI)
	})
	if designErr != nil {
		return platform.Profile{}, vfi.Plan{}, false, fmt.Errorf("expt: %s VFI design: %w", app.Name, designErr)
	}
	if cacheDir != "" {
		saveDesign(cacheDir, cfg, app.Name, prof, plan) // best effort
	}
	return prof, plan, false, nil
}

// suiteEntry is the singleflight slot for one benchmark: the first caller
// runs the build under the entry's Once, later and concurrent callers for
// the same name wait on it, and callers for other names proceed
// independently.
type suiteEntry struct {
	once sync.Once
	pl   *Pipeline
	err  error
}

// Suite lazily builds and caches one pipeline per benchmark. Distinct
// benchmarks build concurrently; duplicate requests coalesce. The
// zero-value-like suite from NewSuite is ready to use and safe for
// concurrent use by multiple goroutines.
type Suite struct {
	Config Config

	mu      sync.Mutex
	entries map[string]*suiteEntry

	pool     *sim.Pool
	cacheDir string
	stats    cacheStats
}

// Option configures a Suite beyond its platform Config.
type Option func(*Suite)

// WithParallelism bounds the suite-wide worker pool to n concurrent
// simulations (n <= 1 means fully serial). The default is GOMAXPROCS.
func WithParallelism(n int) Option {
	return func(s *Suite) { s.pool = sim.NewPool(n) }
}

// WithCacheDir enables the on-disk design cache rooted at dir: pipelines
// store their profiling run and VFI plan keyed by a hash of the suite
// Config and benchmark name, so later suites with the same configuration
// skip the probe simulation and the clustering anneal. An empty dir
// disables caching (the default).
func WithCacheDir(dir string) Option {
	return func(s *Suite) { s.cacheDir = dir }
}

// NewSuite returns an empty suite for the configuration.
func NewSuite(cfg Config, opts ...Option) *Suite {
	s := &Suite{
		Config:  cfg,
		entries: map[string]*suiteEntry{},
		pool:    sim.DefaultPool(),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Parallelism reports the size of the suite's worker pool.
func (s *Suite) Parallelism() int { return s.pool.Size() }

// entry returns (creating if needed) the singleflight slot for a name. The
// suite lock protects only the map, never a build.
func (s *Suite) entry(name string) *suiteEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		e = &suiteEntry{}
		s.entries[name] = e
	}
	return e
}

// Pipeline returns (building on first use) the pipeline for a benchmark.
// Concurrent calls for the same benchmark build it exactly once; calls for
// different benchmarks run concurrently.
func (s *Suite) Pipeline(name string) (*Pipeline, error) {
	e := s.entry(name)
	e.once.Do(func() {
		app, err := apps.ByName(name)
		if err != nil {
			e.err = err
			return
		}
		start := time.Now() //lint:wallclock times the build for the stderr -v progress line only
		e.pl, e.err = buildPipeline(s.Config, app, s.pool, s.cacheDir, &s.stats, nil)
		if obs.Verbose() && e.err == nil {
			elapsed := time.Since(start) //lint:wallclock elapsed build time goes to stderr progress, never into results
			obs.Logf("expt: pipeline %-6s built in %6.2fs (from cache: %v)",
				name, elapsed.Seconds(), e.pl.FromCache)
		}
	})
	return e.pl, e.err
}

// CacheStats snapshots the suite's design-cache outcomes so far.
func (s *Suite) CacheStats() CacheStats {
	return CacheStats{
		Hits:           s.stats.hits.Load(),
		Misses:         s.stats.misses.Load(),
		CorruptEvicted: s.stats.corrupt.Load(),
	}
}

// Pipelines returns the named pipelines in argument order, building the
// missing ones concurrently, and the first error in argument order. It is
// the fan-out entry point for cmd/reproduce -j, the figure drivers and the
// benchmarks. It holds no pool slot itself: every build acquires the
// suite pool for its own stages, so this is a plain goroutine fan-out.
func (s *Suite) Pipelines(names ...string) ([]*Pipeline, error) {
	pls := make([]*Pipeline, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	wg.Add(len(names))
	for i, name := range names {
		go func() {
			defer wg.Done()
			pls[i], errs[i] = s.Pipeline(name)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pls, nil
}

// AppOrder is the benchmark ordering used by the figure drivers (Fig. 8's
// x-axis order).
var AppOrder = []string{"mm", "wc", "pca", "lr", "hist", "kmeans"}

// ForEach runs fn over every benchmark pipeline in AppOrder. The pipelines
// build concurrently; fn itself runs serially in AppOrder so drivers emit
// rows deterministically.
func (s *Suite) ForEach(fn func(*Pipeline) error) error {
	pls, err := s.Pipelines(AppOrder...)
	if err != nil {
		return err
	}
	for _, pl := range pls {
		if err := fn(pl); err != nil {
			return err
		}
	}
	return nil
}
