package sim

import (
	"wivfi/internal/energy"
	"wivfi/internal/platform"
	"wivfi/internal/sched"
)

// PhaseObservation is the live signal packet a governed run hands its
// controller after each phase completes: exactly the per-island
// utilization and queue-depth signals the post-hoc timeline samplers
// derive, but produced at the phase boundary of the run being governed, so
// a controller can act on them before the next phase starts. All fields
// describe the completed phase only — a controller never sees the future.
type PhaseObservation struct {
	// Index and Kind identify the completed phase.
	Index int
	Kind  PhaseKind
	// Seconds is the phase makespan (before any transition stall charged
	// to the phase for the controller's own decision).
	Seconds float64
	// IslandUtil is busy core-seconds over available core-seconds per
	// island, clamped to [0, 1] — the same summary the static design flow
	// feeds its margin-quantize rule.
	IslandUtil []float64
	// QueueDepth is the initial per-worker task backlog of a Map phase
	// (tasks dealt per active thread of the island); 0 for barrier phases
	// and for islands with no active threads.
	QueueDepth []float64
	// IslandPowerW is the measured core power (dynamic + idle clock +
	// leakage) per island over the phase, at the operating points the
	// phase actually ran at.
	IslandPowerW []float64
	// CorePowerW is the chip total of IslandPowerW.
	CorePowerW float64
}

// Controller is the observe->decide->actuate hook of a governed run: it is
// called at every phase boundary with the observation of the phase that
// just completed (nil before the first phase) and must return the VFI
// configuration for the phase about to run. All returned configurations
// must share the system's island partition — cores never migrate between
// islands at run time, only rails move. Finish delivers the last phase's
// observation, which no Decide call ever sees.
type Controller interface {
	Decide(prev *PhaseObservation, index int, kind PhaseKind) platform.VFIConfig
	Finish(last *PhaseObservation)
}

// RunGoverned executes the workload under a closed-loop DVFS controller:
// where RunPhased replays a precomputed (offline, oracle) per-phase plan,
// RunGoverned asks the controller for each phase's configuration online,
// feeding it only observations of phases the governed run itself has
// already executed. Island transitions between consecutive phases pay the
// DVFSTransition cost exactly as in RunPhased, so results are directly
// comparable to Run and RunPhased on the same system.
func RunGoverned(w *Workload, s *System, ctrl Controller, tr DVFSTransition) (*RunResult, error) {
	return run(w, s, s.Name+"+governed", ctrl, tr)
}

// observePhase condenses one executed phase into the controller's signal
// packet: per-island utilization, Map-phase queue depth and measured core
// power at the operating points the phase ran at.
func observePhase(index int, ph *Phase, pr *PhaseResult, cfg platform.VFIConfig,
	islands [][]int, core energy.CoreModel) *PhaseObservation {
	m := len(islands)
	o := &PhaseObservation{
		Index:        index,
		Kind:         ph.Kind,
		Seconds:      pr.Seconds,
		IslandUtil:   make([]float64, m),
		QueueDepth:   make([]float64, m),
		IslandPowerW: make([]float64, m),
	}
	dur := pr.Seconds
	for isl, cores := range islands {
		var busy, joules float64
		for _, th := range cores {
			b := pr.BusySec[th]
			if b > dur {
				b = dur
			}
			busy += b
			dynJ, leakJ := coreEnergyJ(core, cfg.PointOf(th), b, dur)
			joules += dynJ + leakJ
		}
		if dur > 0 {
			o.IslandUtil[isl] = busy / (dur * float64(len(cores)))
			o.IslandPowerW[isl] = joules / dur
		}
		if o.IslandUtil[isl] > 1 {
			o.IslandUtil[isl] = 1
		}
		o.CorePowerW += o.IslandPowerW[isl]
	}
	if ph.Kind == Map {
		active := ph.ActiveThreads
		if active == nil {
			active = AllThreads(len(cfg.Assign))
		}
		assign := sched.DealRoundRobin(ph.Tasks, len(active))
		islandTasks := make([]float64, m)
		islandWorkers := make([]float64, m)
		for _, th := range active {
			islandWorkers[cfg.Assign[th]]++
		}
		for _, w := range assign {
			islandTasks[cfg.Assign[active[w]]]++
		}
		for isl := range islandTasks {
			if islandWorkers[isl] > 0 {
				o.QueueDepth[isl] = islandTasks[isl] / islandWorkers[isl]
			}
		}
	}
	return o
}
