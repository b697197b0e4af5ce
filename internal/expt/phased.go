package expt

import (
	"fmt"
	"strings"

	"wivfi/internal/platform"
	"wivfi/internal/sim"
)

// PhasedRow compares the paper's static VFI 2 mesh system against the
// phase-adaptive DVFS extension on the same mesh platform.
type PhasedRow struct {
	App string
	// Static is the EDP ratio of the paper's static VFI 2 mesh system vs
	// the NVFI mesh baseline; Mean and MaxCore are the two phase-adaptive
	// controllers.
	StaticEDP  float64
	MeanEDP    float64
	MaxCoreEDP float64
	// Execution-time ratios for the same three systems.
	ExecStatic  float64
	ExecMean    float64
	ExecMaxCore float64
	// Transitions counts phase boundaries where at least one island moved
	// (max-core controller).
	Transitions int
}

// PhaseAdaptiveStudy runs the extension study: per-phase island V/F derived
// from the baseline phase profile. The mean-utilization controller throttles
// islands whose average is low — and stretches master-critical coordination
// phases; the bottleneck-aware max-core controller only throttles islands
// with no core on the critical path (Kmeans' idle half during iteration two
// is the showcase).
func (s *Suite) PhaseAdaptiveStudy() ([]PhasedRow, error) {
	pls, err := s.Pipelines(AppOrder...)
	if err != nil {
		return nil, err
	}
	table := platform.DefaultDVFSTable()
	rows := make([]PhasedRow, len(pls))
	modes := []sim.PhaseUtilMode{sim.PhaseUtilMean, sim.PhaseUtilMaxCore}
	nm := len(modes)
	// The mesh system is read-only under RunPhased (it simulates on a
	// copy), so both controller runs of an app share it and fan out.
	meshSys := make([]*sim.System, len(pls))
	for i, pl := range pls {
		rows[i].App = pl.App.Name
		rows[i].ExecStatic, _, rows[i].StaticEDP = pl.VFI2Mesh.Report.Relative(pl.Baseline.Report)
		if meshSys[i], err = sim.VFIMesh(s.Config.Build, pl.Plan.VFI2, pl.Profile.Traffic); err != nil {
			return nil, err
		}
	}
	err = s.pool.Each(len(pls)*nm, func(j int) (string, string) { return "sim:phased-dvfs", pls[j/nm].App.Name }, func(j int) error {
		pl, r, mode := pls[j/nm], &rows[j/nm], modes[j%nm]
		configs := sim.PhaseConfigs(pl.Baseline, pl.Plan.VFI2, table, s.Config.VFI.FreqMargin, mode)
		phased, err := sim.RunPhased(pl.Workload, meshSys[j/nm], configs, sim.DefaultDVFSTransition())
		if err != nil {
			return err
		}
		exec, _, edp := phased.Report.Relative(pl.Baseline.Report)
		if mode == sim.PhaseUtilMean {
			r.ExecMean, r.MeanEDP = exec, edp
			return nil
		}
		r.ExecMaxCore, r.MaxCoreEDP = exec, edp
		for p := 1; p < len(configs); p++ {
			for k := range configs[p].Points {
				if configs[p].Points[k] != configs[p-1].Points[k] {
					r.Transitions++
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatPhased renders the extension study.
func FormatPhased(rows []PhasedRow) string {
	var b strings.Builder
	b.WriteString("Extension: static VFI 2 vs phase-adaptive DVFS controllers (mesh, vs NVFI mesh)\n")
	b.WriteString("  app      EDP static/mean/max-core   exec static/mean/max-core  transitions\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %7.3f %7.3f %7.3f    %7.3f %7.3f %7.3f   %6d\n",
			r.App, r.StaticEDP, r.MeanEDP, r.MaxCoreEDP,
			r.ExecStatic, r.ExecMean, r.ExecMaxCore, r.Transitions)
	}
	return b.String()
}
