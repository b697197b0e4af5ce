package expt

import (
	"fmt"
	"sort"
	"strings"

	"wivfi/internal/sim"
	"wivfi/internal/vfi"
)

// MarginRow is one point of the V/F-margin sensitivity study for one
// benchmark: the margin value, the resulting VFI 2 frequency multiset, and
// the full-system outcome on the mesh.
type MarginRow struct {
	App    string
	Margin float64
	// Freqs is the ascending VFI 2 frequency multiset the margin produces.
	Freqs []float64
	// ExecRatio and EDPRatio are vs the NVFI mesh baseline.
	ExecRatio float64
	EDPRatio  float64
}

// MarginSweep quantifies how sensitive the design flow is to the
// reconstructed V/F-selection margin (the one free parameter the paper does
// not specify; 0.35 reproduces Table 2). Small margins under-provision and
// slow the chip; large margins collapse every island to f_max and erase the
// savings.
func (s *Suite) MarginSweep(appName string, margins []float64) ([]MarginRow, error) {
	pl, err := s.Pipeline(appName)
	if err != nil {
		return nil, err
	}
	for _, m := range margins {
		if m < 0 || m > 1 {
			return nil, fmt.Errorf("expt: margin %v out of [0,1]", m)
		}
	}
	// Every margin point re-runs the design flow and one mesh simulation on
	// the shared profile — independent work, fanned out over the pool with
	// rows assembled in argument order.
	rows := make([]MarginRow, len(margins))
	err = s.pool.Each(len(margins), func(int) (string, string) { return "sim:margin-sweep", appName }, func(i int) error {
		opts := s.Config.VFI
		opts.FreqMargin = margins[i]
		plan, err := vfi.Design(pl.Profile, opts)
		if err != nil {
			return err
		}
		sys, err := sim.VFIMesh(s.Config.Build, plan.VFI2, pl.Profile.Traffic)
		if err != nil {
			return err
		}
		run, err := sim.Run(pl.Workload, sys)
		if err != nil {
			return err
		}
		var fs []float64
		for _, p := range plan.VFI2.Points {
			fs = append(fs, p.FreqGHz)
		}
		sort.Float64s(fs)
		exec, _, edp := run.Report.Relative(pl.Baseline.Report)
		rows[i] = MarginRow{
			App: appName, Margin: margins[i], Freqs: fs,
			ExecRatio: exec, EDPRatio: edp,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatMargin renders the sensitivity study.
func FormatMargin(rows []MarginRow) string {
	var b strings.Builder
	b.WriteString("Sensitivity: V/F-selection margin (VFI 2 mesh, vs NVFI mesh)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s margin=%.2f islands=%v exec=%.3f EDP=%.3f\n",
			r.App, r.Margin, r.Freqs, r.ExecRatio, r.EDPRatio)
	}
	return b.String()
}
