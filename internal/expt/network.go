package expt

import (
	"fmt"
	"strings"

	"wivfi/internal/sim"
	"wivfi/internal/topo"
)

// networkEDP aggregates a run's network energy-delay product: each phase
// contributes its network energy times its average packet latency, the
// figure of merit Section 7.2 optimizes.
func networkEDP(res *sim.RunResult) float64 {
	var edp float64
	for _, ph := range res.Phases {
		edp += ph.NetJ * ph.NetLatencyCycles
	}
	return edp
}

// Fig6Row is one benchmark of Fig. 6: the network EDP of the
// maximized-wireless-utilization placement relative to the minimized
// hop-count placement.
type Fig6Row struct {
	App string
	// Ratio < 1 means max-wireless wins, as the paper reports for all
	// benchmarks (0.90-1.00).
	Ratio float64
	// WirelessEDP and MinHopEDP are the absolute network EDPs (J x cycles).
	WirelessEDP, MinHopEDP float64
}

// Fig6 reproduces the placement-strategy comparison.
func (s *Suite) Fig6() ([]Fig6Row, error) {
	var rows []Fig6Row
	err := s.ForEach(func(pl *Pipeline) error {
		maxW := networkEDP(pl.WiNoC[sim.MaxWireless])
		minH := networkEDP(pl.WiNoC[sim.MinHop])
		rows = append(rows, Fig6Row{
			App:         pl.App.Name,
			Ratio:       maxW / minH,
			WirelessEDP: maxW,
			MinHopEDP:   minH,
		})
		return nil
	})
	return rows, err
}

// FormatFig6 renders the strategy comparison.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Fig. 6. Network EDP: max-wireless-utilization relative to min-hop-count placement\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s ratio=%.3f\n", r.App, r.Ratio)
	}
	return b.String()
}

// KIntraRow is one benchmark of the Section 7.2 parameter study: the WiNoC
// with (k_intra, k_inter) = (3,1) versus (2,2).
type KIntraRow struct {
	App string
	// EDP31 and EDP22 are network EDPs under the two configurations.
	EDP31, EDP22 float64
	// Exec31 and Exec22 are full execution times (seconds).
	Exec31, Exec22 float64
}

// KIntraSweep reproduces the (3,1)-vs-(2,2) finding: the paper reports
// (3,1) always performs better. The twelve (app × configuration) WiNoC
// simulations are independent, so they fan out over the suite's pool; the
// row order stays AppOrder regardless of completion order.
func (s *Suite) KIntraSweep() ([]KIntraRow, error) {
	pls, err := s.Pipelines(AppOrder...)
	if err != nil {
		return nil, err
	}
	rows := make([]KIntraRow, len(pls))
	variants := []struct{ kIntra, kInter float64 }{{3, 1}, {2, 2}}
	nv := len(variants)
	for i, pl := range pls {
		rows[i].App = pl.App.Name
	}
	err = s.pool.Each(len(pls)*nv, func(j int) (string, string) { return "sim:kintra-sweep", pls[j/nv].App.Name }, func(j int) error {
		pl, r, variant := pls[j/nv], &rows[j/nv], variants[j%nv]
		cfg := s.Config.Build
		cfg.SmallWorld.KIntra = variant.kIntra
		cfg.SmallWorld.KInter = variant.kInter
		sys, err := sim.VFIWiNoC(cfg, pl.Plan.VFI2, pl.Profile.Traffic, pl.BestStrategy)
		if err != nil {
			return err
		}
		res, err := sim.Run(pl.Workload, sys)
		if err != nil {
			return err
		}
		if j%nv == 0 {
			r.EDP31, r.Exec31 = networkEDP(res), res.Report.ExecSeconds
		} else {
			r.EDP22, r.Exec22 = networkEDP(res), res.Report.ExecSeconds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatKIntra renders the parameter study.
func FormatKIntra(rows []KIntraRow) string {
	var b strings.Builder
	b.WriteString("Section 7.2: (k_intra,k_inter) = (3,1) vs (2,2), network EDP and execution time\n")
	for _, r := range rows {
		verdict := "(3,1) wins"
		if r.EDP31 > r.EDP22 {
			verdict = "(2,2) wins"
		}
		fmt.Fprintf(&b, "  %-8s EDP31=%.4g EDP22=%.4g exec31=%.3fs exec22=%.3fs  %s\n",
			r.App, r.EDP31, r.EDP22, r.Exec31, r.Exec22, verdict)
	}
	return b.String()
}

// MinKIntraNote returns the feasibility bound of Section 7.2: 16-switch
// clusters need k_intra >= 1.875.
func MinKIntraNote() string {
	return fmt.Sprintf("fully connected 16-switch clusters require k_intra >= %.3f\n", topo.MinKIntra(16))
}
