package sim

import (
	"fmt"

	"wivfi/internal/energy"
	"wivfi/internal/noc"
	"wivfi/internal/place"
	"wivfi/internal/platform"
	"wivfi/internal/sched"
)

// System is one fully configured platform: cores with per-island DVFS
// state, a thread-to-tile mapping and a routed interconnect.
type System struct {
	Name string
	Chip platform.Chip
	// VFI assigns threads (not tiles) to islands and islands to operating
	// points; thread i's core runs at VFI.PointOf(i).
	VFI platform.VFIConfig
	// Mapping places thread i on tile Mapping.ThreadToTile[i].
	Mapping place.Mapping
	// Routes is the routed interconnect topology.
	Routes *noc.RouteTable
	// Models and configuration.
	NetModel    energy.NetworkModel
	CoreModel   energy.CoreModel
	Analytic    noc.AnalyticConfig
	NetClockGHz float64
	// Policy selects the Map-phase stealing behaviour.
	Policy sched.Policy
	// MemRoundTripFactor converts one memory operation into this many
	// network packet traversals; 3 models the MOESI directory indirection
	// (requester -> home -> owner/data -> requester).
	MemRoundTripFactor float64
	// AdaptiveRouting enables per-phase congestion-aware route refinement
	// (irregular fabrics configure their routing tables per application;
	// XY mesh routing is oblivious and unaffected).
	AdaptiveRouting bool
}

// Validate checks the system is complete and dimensionally consistent.
func (s *System) Validate() error {
	n := s.Chip.NumCores()
	if len(s.VFI.Assign) != n {
		return fmt.Errorf("sim: VFI covers %d threads for %d cores", len(s.VFI.Assign), n)
	}
	if err := s.VFI.Validate(); err != nil {
		return err
	}
	if err := s.Mapping.Validate(); err != nil {
		return err
	}
	if len(s.Mapping.ThreadToTile) != n {
		return fmt.Errorf("sim: mapping covers %d threads", len(s.Mapping.ThreadToTile))
	}
	if s.Routes == nil {
		return fmt.Errorf("sim: system %q has no routes", s.Name)
	}
	if s.NetClockGHz <= 0 {
		return fmt.Errorf("sim: net clock %v", s.NetClockGHz)
	}
	if s.MemRoundTripFactor <= 0 {
		return fmt.Errorf("sim: memory round-trip factor %v", s.MemRoundTripFactor)
	}
	return nil
}

// PhaseResult reports one executed phase.
type PhaseResult struct {
	Kind             PhaseKind
	Iteration        int
	Seconds          float64
	BusySec          []float64 // per thread
	CoreDynJ         float64
	CoreLeakJ        float64
	NetJ             float64
	NetLatencyCycles float64
	MemStallSec      float64 // per-memory-op stall used this phase
	Steals           int
}

// RunResult aggregates a full workload execution on one system.
type RunResult struct {
	System   string
	Workload string
	Phases   []PhaseResult
	Report   energy.Report
	// BusySec is the per-thread total busy time.
	BusySec []float64
	// ThreadTraffic is the total thread-to-thread flits exchanged.
	ThreadTraffic [][]float64
}

// SecondsByKind sums phase durations per kind (the Fig. 7 breakdown).
func (r *RunResult) SecondsByKind() map[PhaseKind]float64 {
	out := map[PhaseKind]float64{}
	for _, ph := range r.Phases {
		out[ph.Kind] += ph.Seconds
	}
	return out
}

// Profile derives the platform profile the VFI design flow consumes:
// per-thread utilization over the whole run and thread-to-thread traffic
// rates in flits per microsecond. Run this on the non-VFI baseline system,
// per step 1 of the paper's design flow.
func (r *RunResult) Profile() platform.Profile {
	n := len(r.BusySec)
	util := make([]float64, n)
	total := r.Report.ExecSeconds
	for i, b := range r.BusySec {
		if total > 0 {
			util[i] = b / total
		}
		if util[i] > 1 {
			util[i] = 1
		}
	}
	traffic := make([][]float64, n)
	for i := range traffic {
		traffic[i] = make([]float64, n)
		for j := range traffic[i] {
			if total > 0 && i != j {
				traffic[i][j] = r.ThreadTraffic[i][j] / (total * 1e6)
			}
		}
	}
	return platform.Profile{Util: util, Traffic: traffic}
}

// Run executes the workload on the system with its static VFI
// configuration held for every phase — the paper's per-island V/F.
func Run(w *Workload, s *System) (*RunResult, error) {
	return run(w, s, s.Name, fixed(s.VFI), DVFSTransition{})
}

// fixed is the controller of Run: the same configuration for every phase.
type fixed platform.VFIConfig

func (f fixed) Decide(*PhaseObservation, int, PhaseKind) platform.VFIConfig {
	return platform.VFIConfig(f)
}

func (fixed) Finish(*PhaseObservation) {}

// run is the one phase loop behind Run, RunPhased and RunGoverned. Before
// each phase it asks ctrl for the island configuration, checks that the
// configuration moves only operating points (never cores between islands),
// executes the phase at it and hands the observation of the executed phase
// to the next Decide (the last one to Finish). Every island whose point
// changed at a phase boundary pays tr. name labels the result.
func run(w *Workload, s *System, name string, ctrl Controller, tr DVFSTransition) (*RunResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Chip.NumCores()
	if w.Threads != n {
		return nil, fmt.Errorf("sim: workload has %d threads for %d cores", w.Threads, n)
	}
	islands := s.VFI.Islands()
	res := &RunResult{
		System:        name,
		Workload:      w.Name,
		BusySec:       make([]float64, n),
		ThreadTraffic: zeroMatrix(n),
	}
	phaseSys := *s
	freqs := make([]float64, n)
	var prevCfg platform.VFIConfig
	var obs *PhaseObservation
	for i := range w.Phases {
		ph := &w.Phases[i]
		cfg := ctrl.Decide(obs, i, ph.Kind)
		if len(cfg.Assign) != n {
			return nil, fmt.Errorf("sim: phase %d config covers %d threads", i, len(cfg.Assign))
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sim: phase %d config: %w", i, err)
		}
		for th := 0; th < n; th++ {
			if cfg.Assign[th] != s.VFI.Assign[th] {
				return nil, fmt.Errorf("sim: phase %d reassigns thread %d between islands", i, th)
			}
			freqs[th] = cfg.FreqOf(th)
		}
		phaseSys.VFI = cfg
		pr, err := runPhase(ph, &phaseSys, freqs)
		if err != nil {
			return nil, fmt.Errorf("sim: %s/%v: %w", w.Name, ph.Kind, err)
		}
		// The observation describes the phase as executed, before the
		// boundary transition stall is charged — the controller reasons
		// about steady-state phase behaviour, not about its own actuation
		// overhead (which it pays, and can count, separately).
		obs = observePhase(i, ph, &pr, cfg, islands, s.CoreModel)
		if i > 0 {
			changed := 0
			for j := range cfg.Points {
				if cfg.Points[j] != prevCfg.Points[j] {
					changed++
				}
			}
			if changed > 0 {
				pr.Seconds += tr.SettleSec
				pr.CoreDynJ += float64(changed) * tr.EnergyJ
			}
		}
		prevCfg = cfg
		res.Phases = append(res.Phases, pr)
		res.Report.ExecSeconds += pr.Seconds
		res.Report.CoreDynamicJ += pr.CoreDynJ
		res.Report.CoreLeakageJ += pr.CoreLeakJ
		res.Report.NetworkJ += pr.NetJ
		for th := range pr.BusySec {
			res.BusySec[th] += pr.BusySec[th]
		}
		if ph.Traffic != nil {
			AddTraffic(res.ThreadTraffic, ph.Traffic)
		}
	}
	ctrl.Finish(obs)
	return res, nil
}

// runPhase executes one phase with a small fixed-point iteration between
// phase duration and network-dependent memory stall time.
func runPhase(ph *Phase, s *System, freqs []float64) (PhaseResult, error) {
	n := len(freqs)
	// Switch-level traffic for this phase.
	var switchTraffic [][]float64
	var totalFlits float64
	if ph.Traffic != nil {
		switchTraffic = place.MapTraffic(ph.Traffic, s.Mapping)
		for _, row := range ph.Traffic {
			for _, f := range row {
				totalFlits += f
			}
		}
	}
	memStall := 0.0 // seconds per memory op; refined by fixed point
	var dur float64
	var busy []float64
	var steals int
	var netLat float64
	var err error
	routes := s.Routes
	// rates is reused across fixed-point iterations; every entry is
	// rewritten before each evaluation.
	var rates [][]float64
	if switchTraffic != nil {
		rates = make([][]float64, n)
		for i := range rates {
			rates[i] = make([]float64, n)
		}
	}
	for iter := 0; iter < 3; iter++ {
		dur, busy, steals, err = phaseDuration(ph, s, freqs, memStall)
		if err != nil {
			return PhaseResult{}, err
		}
		if switchTraffic == nil || totalFlits == 0 || dur <= 0 {
			break
		}
		// Convert phase flit totals into flits/cycle rates and evaluate
		// the network.
		cycles := dur * s.NetClockGHz * 1e9
		for i := range rates {
			for j := range rates[i] {
				rates[i][j] = switchTraffic[i][j] / cycles
			}
		}
		if s.AdaptiveRouting && iter == 0 {
			refined, rerr := noc.RefineRoutes(routes, rates, 2, s.Analytic.MaxUtilization)
			if rerr != nil {
				return PhaseResult{}, rerr
			}
			routes = refined
		}
		ana, aerr := noc.Analytic(routes, rates, s.NetModel, s.Analytic)
		if aerr != nil {
			return PhaseResult{}, aerr
		}
		netLat = ana.AvgLatencyCycles
		memStall = s.MemRoundTripFactor * netLat / (s.NetClockGHz * 1e9)
	}

	pr := PhaseResult{
		Kind:             ph.Kind,
		Iteration:        ph.Iteration,
		Seconds:          dur,
		BusySec:          busy,
		NetLatencyCycles: netLat,
		MemStallSec:      memStall,
		Steals:           steals,
	}
	// Network energy: every flit travels its (possibly refined) route once.
	if switchTraffic != nil {
		var pj float64
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if f := switchTraffic[src][dst]; f != 0 && src != dst {
					pj += f * routes.PathEnergyPJ(src, dst, s.NetModel)
				}
			}
		}
		pr.NetJ = pj * 1e-12
	}
	// Core energy at each thread's island operating point.
	for th := 0; th < n; th++ {
		b := busy[th]
		if b > dur {
			b = dur
		}
		dynJ, leakJ := coreEnergyJ(s.CoreModel, s.VFI.PointOf(th), b, dur)
		pr.CoreDynJ += dynJ
		pr.CoreLeakJ += leakJ
	}
	return pr, nil
}

// coreEnergyJ is one core's energy over a phase of dur seconds, busy for
// b <= dur of them, at operating point op: dynamic power while busy, the
// idle-clock fraction of it for the rest, and leakage throughout.
func coreEnergyJ(m energy.CoreModel, op platform.OperatingPoint, b, dur float64) (dynJ, leakJ float64) {
	return m.DynamicPowerW(op, 1)*b + m.DynamicPowerW(op, 1)*m.IdleFrac*(dur-b), m.LeakagePowerW(op) * dur
}

// phaseDuration computes the phase makespan and per-thread busy times for a
// given per-memory-op stall.
func phaseDuration(ph *Phase, s *System, freqs []float64, memStall float64) (float64, []float64, int, error) {
	n := len(freqs)
	busy := make([]float64, n)
	switch ph.Kind {
	case Map:
		active := ph.ActiveThreads
		if active == nil {
			active = AllThreads(n)
		}
		activeFreqs := make([]float64, len(active))
		for i, th := range active {
			activeFreqs[i] = freqs[th]
		}
		tasks := sched.UniformTasks(ph.Tasks, ph.TaskCycles, ph.TaskSpread, ph.TaskMemOps*memStall)
		assign := sched.DealRoundRobin(ph.Tasks, len(active))
		res, err := sched.RunPhase(tasks, assign, activeFreqs, s.Policy, 0)
		if err != nil {
			return 0, nil, 0, err
		}
		for i, th := range active {
			busy[th] = res.BusySec[i]
		}
		return res.MakespanSec, busy, res.Steals, nil
	default:
		var dur float64
		for th := 0; th < n; th++ {
			w := ph.WorkCycles[th]
			if w == 0 {
				continue
			}
			compute := w / (freqs[th] * 1e9)
			d := compute
			if ph.MemOps != nil {
				d += ph.MemOps[th] * memStall
			}
			// Busy counts compute only: memory stalls commit no
			// instructions, so they do not raise IPC-based utilization.
			busy[th] = compute
			if d > dur {
				dur = d
			}
		}
		return dur, busy, 0, nil
	}
}
