package main

import (
	"fmt"
	"math/rand"
	"time"

	"wivfi/internal/energy"
	"wivfi/internal/noc"
	"wivfi/internal/obs"
	"wivfi/internal/place"
	"wivfi/internal/platform"
	"wivfi/internal/topo"
)

// noc-des inputs: uniform random traces of desPackets packets of
// desFlits flits, injected over a horizon that gives the target rate.
const (
	desPackets = 20000
	desFlits   = 4
	// desTracesPerRate uniform traces are drawn per rate; each runs on
	// both topologies.
	desTracesPerRate = 4
	// desMaxCyclesFactor caps a run at this multiple of its trace's
	// injection horizon. A healthy run ends a few hundred cycles after
	// the horizon; a deadlocked one stops here and fails in well under a
	// second instead of running to the 2M-cycle default.
	desMaxCyclesFactor = 2
)

var desRates = []float64{0.02, 0.05, 0.08}

// desEntries are the three DES entry points the ops rotate through.
var desEntries = []struct {
	name, metric string
	run          func(rt *noc.RouteTable, pkts []noc.Packet, nm energy.NetworkModel, cfg noc.DESConfig) (noc.DESResult, error)
}{
	{"RunDES", "noc.des_plain_ms", noc.RunDES},
	{"RunDESInstrumented", "noc.des_instrumented_ms", func(rt *noc.RouteTable, pkts []noc.Packet, nm energy.NetworkModel, cfg noc.DESConfig) (noc.DESResult, error) {
		st, err := noc.RunDESInstrumented(rt, pkts, nm, cfg)
		if err != nil {
			return noc.DESResult{}, err
		}
		return st.DESResult, nil
	}},
	{"RunDESTimeline", "noc.des_timeline_ms", func(rt *noc.RouteTable, pkts []noc.Packet, nm energy.NetworkModel, cfg noc.DESConfig) (noc.DESResult, error) {
		st, _, err := noc.RunDESTimeline(rt, pkts, nm, cfg, "perfbench/")
		if err != nil {
			return noc.DESResult{}, err
		}
		return st.DESResult, nil
	}},
}

// desCase is one (topology, trace) pair.
type desCase struct {
	key  string // digest key, seed included
	rt   *noc.RouteTable
	pkts []noc.Packet
	cfg  noc.DESConfig
}

// desWorkload is noc-des: one op is one DES run of a case through one of
// the three entry points. Topologies, routes and traces are built in
// setup.
type desWorkload struct {
	want  *digests
	nm    energy.NetworkModel
	cases []desCase
	// first holds each case's first outcome in this setup; runs of the
	// case through the other entry points must equal it.
	first map[int]string
}

func (w *desWorkload) rotation() int            { return len(w.cases) * len(desEntries) }
func (w *desWorkload) rotationSeconds() float64 { return 7.5 }

// desTopologies builds the 8x8 mesh with XY routing and nocsim's WiNoC
// (centre WIs, small-world fabric) with up*/down* routing, timing each
// route build.
func desTopologies() (names []string, rts []*noc.RouteTable, builds []time.Duration, err error) {
	chip := platform.DefaultChip()
	wi, err := place.BuildTopology(chip, nil, place.CenterWIs(chip), topo.DefaultSmallWorldConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	for _, t := range []struct {
		name string
		tp   *topo.Topology
		mode noc.RoutingMode
	}{{"mesh", topo.Mesh(chip), noc.XY}, {"winoc", wi, noc.UpDown}} {
		t0 := time.Now()
		rt, err := noc.BuildRoutes(t.tp, noc.DefaultLinkCosts(), t.mode)
		if err != nil {
			return nil, nil, nil, err
		}
		builds = append(builds, time.Since(t0))
		names = append(names, t.name)
		rts = append(rts, rt)
	}
	return names, rts, builds, nil
}

// uniformTrace draws a uniform random trace at rate flits/cycle/node on
// n switches: uniform source, uniform other destination, uniform
// injection cycle over the horizon. It returns the trace and its horizon.
func uniformTrace(rng *rand.Rand, n int, rate float64) ([]noc.Packet, int64) {
	horizon := int64(float64(desPackets*desFlits) / (rate * float64(n)))
	pkts := make([]noc.Packet, desPackets)
	for i := range pkts {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		pkts[i] = noc.Packet{ID: i, Src: src, Dst: dst, Flits: desFlits, Inject: rng.Int63n(horizon + 1)}
	}
	return pkts, horizon
}

func (w *desWorkload) setup(seed int64) error {
	names, rts, _, err := desTopologies()
	if err != nil {
		return err
	}
	w.nm = energy.DefaultNetworkModel()
	w.first = map[int]string{}
	w.cases = w.cases[:0]
	rng := rand.New(rand.NewSource(seed))
	n := platform.DefaultChip().NumCores()
	for _, rate := range desRates {
		for k := 0; k < desTracesPerRate; k++ {
			pkts, horizon := uniformTrace(rng, n, rate)
			cfg := noc.DefaultDESConfig()
			cfg.MaxCycles = desMaxCyclesFactor * horizon
			for t, rt := range rts {
				w.cases = append(w.cases, desCase{
					key:  fmt.Sprintf("noc-des/seed=%d/%s/%g/%d", seed, names[t], rate, k),
					rt:   rt,
					pkts: pkts,
					cfg:  cfg,
				})
			}
		}
	}
	return nil
}

// opCase maps op i to its case and entry point: every case runs through
// every entry point once per rotation.
func (w *desWorkload) opCase(i int) (int, int) {
	i %= w.rotation()
	return i % len(w.cases), i / len(w.cases)
}

func (w *desWorkload) op(i int, tr *tracer) opResult {
	ci, ei := w.opCase(i)
	c, entry := w.cases[ci], desEntries[ei]
	res := opResult{label: c.key + " " + entry.name}
	var before map[string]int64
	if tr != nil {
		before = obs.CounterTotals()
	}
	t0 := time.Now()
	got, err := entry.run(c.rt, c.pkts, w.nm, c.cfg)
	d := time.Since(t0)
	if tr != nil {
		after := obs.CounterTotals()
		tr.add(entry.metric, d)
		delta := func(name string) float64 { return float64(after[name] - before[name]) }
		tr.sample("noc.des_cycles_per_s", delta(noc.MetricDESCycles)/d.Seconds())
		tr.sample("noc.des_flit_hops_per_s", delta(noc.MetricDESFlitHops)/d.Seconds())
		tr.count("noc.des.stalled_packets", delta(noc.MetricDESStalledPackets))
	}
	// RunDES returns its result even when the run hits MaxCycles, with
	// an error; the instrumented entry points return the error alone.
	if (err == nil || ei == 0) && got.Delivered+got.Stalled != len(c.pkts) {
		res.failure = fmt.Sprintf("delivered %d + stalled %d != %d packets", got.Delivered, got.Stalled, len(c.pkts))
		res.mismatch = true
		return res
	}
	outcome := desOutcome(got, err)
	if ref, ok := w.first[ci]; !ok {
		w.first[ci] = outcome
	} else if outcome != ref {
		res.failure = fmt.Sprintf("%s outcome %s differs from the first run of this trace (%s)", entry.name, outcome, ref)
		res.mismatch = true
		return res
	}
	if res = w.want.check(res, c.key, outcome); res.failure == "" && err != nil {
		res.failure = err.Error()
	}
	return res
}

// desOutcome digests a DES run's result, or its error when it failed (a
// run that hits MaxCycles reports the undelivered packet count there).
func desOutcome(res noc.DESResult, err error) string {
	if err != nil {
		return digest("error: " + err.Error())
	}
	return digest(res)
}

// replay times a fresh build of both topologies' routes once per
// rotation; the ops themselves are the DES calls.
func (w *desWorkload) replay(i int, tr *tracer) error {
	if i%w.rotation() != 0 {
		return nil
	}
	_, _, builds, err := desTopologies()
	for _, d := range builds {
		tr.add("noc.build_routes_ms", d)
	}
	return err
}
