package expt

import (
	"fmt"
	"sort"
	"strings"

	"wivfi/internal/sim"
	"wivfi/internal/stats"
)

// Fig2Row is one panel of Fig. 2: the per-core utilization distribution of
// one benchmark on the non-VFI system, sorted descending (the paper's bar
// order), plus the average the dotted arrow marks.
type Fig2Row struct {
	App     string
	Sorted  []float64 // 64 utilizations, highest first
	Average float64
}

// Fig2Apps are the four applications Fig. 2 plots.
var Fig2Apps = []string{"kmeans", "pca", "mm", "hist"}

// Fig2 reproduces the utilization distributions.
func (s *Suite) Fig2() ([]Fig2Row, error) {
	pls, err := s.Pipelines(Fig2Apps...)
	if err != nil {
		return nil, err
	}
	var rows []Fig2Row
	for _, pl := range pls {
		sorted := append([]float64(nil), pl.Profile.Util...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		rows = append(rows, Fig2Row{
			App:     pl.App.Name,
			Sorted:  sorted,
			Average: stats.Mean(sorted),
		})
	}
	return rows, nil
}

// FormatFig2 renders compact text sparklines of the distributions.
func FormatFig2(rows []Fig2Row) string {
	var b strings.Builder
	b.WriteString("Fig. 2. Core utilization (sorted descending, avg marked)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s avg=%.3f max=%.3f min=%.3f  ", r.App, r.Average, r.Sorted[0], r.Sorted[len(r.Sorted)-1])
		for i := 0; i < len(r.Sorted); i += 8 {
			fmt.Fprintf(&b, "%.2f ", r.Sorted[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig4Row is one benchmark of Fig. 4: execution time and EDP of the VFI 1
// and VFI 2 systems, normalized to the NVFI mesh.
type Fig4Row struct {
	App                string
	ExecVFI1, ExecVFI2 float64
	EDPVFI1, EDPVFI2   float64
}

// Fig4Apps are the three re-assigned applications Fig. 4 plots.
var Fig4Apps = []string{"pca", "hist", "mm"}

// Fig4 reproduces the VFI 1 vs VFI 2 comparison.
func (s *Suite) Fig4() ([]Fig4Row, error) {
	pls, err := s.Pipelines(Fig4Apps...)
	if err != nil {
		return nil, err
	}
	var rows []Fig4Row
	for _, pl := range pls {
		e1, _, d1 := pl.VFI1Mesh.Report.Relative(pl.Baseline.Report)
		e2, _, d2 := pl.VFI2Mesh.Report.Relative(pl.Baseline.Report)
		rows = append(rows, Fig4Row{
			App: pl.App.Name, ExecVFI1: e1, ExecVFI2: e2, EDPVFI1: d1, EDPVFI2: d2,
		})
	}
	return rows, nil
}

// FormatFig4 renders the comparison.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	b.WriteString("Fig. 4. VFI 1 vs VFI 2 (normalized to NVFI mesh)\n")
	b.WriteString("  app      exec(VFI1) exec(VFI2)   EDP(VFI1)  EDP(VFI2)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %10.3f %10.3f  %10.3f %10.3f\n",
			r.App, r.ExecVFI1, r.ExecVFI2, r.EDPVFI1, r.EDPVFI2)
	}
	return b.String()
}

// Fig5Row is one benchmark of Fig. 5: average vs bottleneck-core
// utilization.
type Fig5Row struct {
	App            string
	AverageUtil    float64
	BottleneckUtil float64
}

// Fig5 reproduces the bottleneck-core comparison for PCA, HIST and MM.
func (s *Suite) Fig5() ([]Fig5Row, error) {
	pls, err := s.Pipelines(Fig4Apps...) // same three applications
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, pl := range pls {
		rows = append(rows, Fig5Row{
			App:            pl.App.Name,
			AverageUtil:    stats.Mean(pl.Profile.Util),
			BottleneckUtil: stats.Max(pl.Profile.Util),
		})
	}
	return rows, nil
}

// FormatFig5 renders the comparison.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("Fig. 5. Average vs bottleneck core utilization\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s avg=%.3f bottleneck=%.3f ratio=%.2f\n",
			r.App, r.AverageUtil, r.BottleneckUtil, r.BottleneckUtil/r.AverageUtil)
	}
	return b.String()
}

// Fig7Row is one system bar of Fig. 7: per-phase execution time normalized
// to the NVFI mesh total.
type Fig7Row struct {
	App    string
	System string
	// Phase shares normalized to the baseline's total execution time.
	Map, Reduce, Merge, LibInit float64
	Total                       float64
}

// Fig7 reproduces the execution-time breakdown for VFI Mesh and VFI WiNoC.
func (s *Suite) Fig7() ([]Fig7Row, error) {
	var rows []Fig7Row
	err := s.ForEach(func(pl *Pipeline) error {
		baseT := pl.Baseline.Report.ExecSeconds
		for _, sys := range []struct {
			label string
			res   *sim.RunResult
		}{
			{"vfi-mesh", pl.VFI2Mesh},
			{"vfi-winoc", pl.BestWiNoC()},
		} {
			byKind := sys.res.SecondsByKind()
			row := Fig7Row{
				App:     pl.App.Name,
				System:  sys.label,
				Map:     byKind[sim.Map] / baseT,
				Reduce:  byKind[sim.Reduce] / baseT,
				Merge:   byKind[sim.Merge] / baseT,
				LibInit: (byKind[sim.LibInit] + byKind[sim.Split]) / baseT,
			}
			row.Total = row.Map + row.Reduce + row.Merge + row.LibInit
			rows = append(rows, row)
		}
		return nil
	})
	return rows, err
}

// FormatFig7 renders the stacked breakdown.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("Fig. 7. Normalized execution time per phase (vs NVFI mesh)\n")
	b.WriteString("  app      system     map    reduce merge  libinit total\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %-10s %-6.3f %-6.3f %-6.3f %-7.3f %.3f\n",
			r.App, r.System, r.Map, r.Reduce, r.Merge, r.LibInit, r.Total)
	}
	return b.String()
}

// Fig8Row is one benchmark of Fig. 8: full-system EDP of VFI Mesh and VFI
// WiNoC relative to the NVFI mesh.
type Fig8Row struct {
	App      string
	EDPMesh  float64
	EDPWiNoC float64
	// ExecMesh/ExecWiNoC give the execution-time ratios backing the EDP.
	ExecMesh, ExecWiNoC float64
	// Strategy is the placement methodology the WiNoC used.
	Strategy string
}

// Fig8 reproduces the full-system EDP comparison.
func (s *Suite) Fig8() ([]Fig8Row, error) {
	var rows []Fig8Row
	err := s.ForEach(func(pl *Pipeline) error {
		em, _, dm := pl.VFI2Mesh.Report.Relative(pl.Baseline.Report)
		ew, _, dw := pl.BestWiNoC().Report.Relative(pl.Baseline.Report)
		rows = append(rows, Fig8Row{
			App: pl.App.Name, EDPMesh: dm, EDPWiNoC: dw,
			ExecMesh: em, ExecWiNoC: ew,
			Strategy: pl.BestStrategy.String(),
		})
		return nil
	})
	return rows, err
}

// FormatFig8 renders the comparison.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Fig. 8. Full-system EDP (vs NVFI mesh)\n")
	b.WriteString("  app      EDP(mesh) EDP(winoc) exec(mesh) exec(winoc) strategy\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %9.3f %10.3f %10.3f %11.3f %s\n",
			r.App, r.EDPMesh, r.EDPWiNoC, r.ExecMesh, r.ExecWiNoC, r.Strategy)
	}
	return b.String()
}

// Summary reports the abstract's headline numbers: the average and maximum
// EDP savings of the VFI WiNoC over the NVFI mesh, and its maximum
// execution-time penalty.
type Summary struct {
	AvgEDPSavingPct   float64
	MaxEDPSavingPct   float64
	MaxEDPSavingApp   string
	MaxExecPenaltyPct float64
	MaxExecPenaltyApp string
}

// Summarize computes the headline numbers from Fig. 8's rows.
func Summarize(rows []Fig8Row) Summary {
	var sum Summary
	var total float64
	for _, r := range rows {
		saving := (1 - r.EDPWiNoC) * 100
		total += saving
		if saving > sum.MaxEDPSavingPct {
			sum.MaxEDPSavingPct = saving
			sum.MaxEDPSavingApp = r.App
		}
		penalty := (r.ExecWiNoC - 1) * 100
		if penalty > sum.MaxExecPenaltyPct {
			sum.MaxExecPenaltyPct = penalty
			sum.MaxExecPenaltyApp = r.App
		}
	}
	sum.AvgEDPSavingPct = total / float64(len(rows))
	return sum
}

// FormatSummary renders the headline numbers next to the paper's.
func FormatSummary(s Summary) string {
	return fmt.Sprintf(
		"Summary: avg EDP saving %.1f%% (paper: 33.7%%), max %.1f%% on %s (paper: 66.2%% on kmeans), "+
			"max exec penalty %.2f%% on %s (paper: 3.22%%)\n",
		s.AvgEDPSavingPct, s.MaxEDPSavingPct, s.MaxEDPSavingApp,
		s.MaxExecPenaltyPct, s.MaxExecPenaltyApp)
}
