package noc

import (
	"fmt"
	"math"
	"sort"

	"wivfi/internal/energy"
	"wivfi/internal/topo"
)

// This file preserves the original cycle-driven wormhole engine verbatim
// (modulo telemetry, which the production wrapper owns) as the reference
// implementation the differential property test replays against. It
// iterates every switch and adjacency every simulated cycle and pays the
// per-flit O(path) route scan via pktState.nextAdjAt — the costs the
// event-calendar engine removes — so any semantic drift in the rewrite
// shows up as a result, latency-list, or hook-sequence mismatch.

// pktState is a packet's runtime state in the pointer-based data model.
// The event-calendar engine (des_engine.go) keeps packet state in
// struct-of-arrays form instead; this representation is retained for the
// cycle-driven reference engine the differential tests replay against.
type pktState struct {
	Packet
	nodeSeq []int // switch sequence src..dst
	adjSeq  []int // adjacency index per hop
	// injection progress at the source
	flitsInjected int
	// delivery bookkeeping
	flitsEjected int
	done         bool
	ejectCycle   int64
}

// nextAdjAt returns the adjacency index the packet must take at node u by
// scanning the route from its start — O(path length) per call. The event
// engine replaces this with an O(1) per-packet hop-index lookup; the scan
// is kept as the reference-engine behaviour the differential test pins.
func (p *pktState) nextAdjAt(u int) int {
	for i, n := range p.nodeSeq[:len(p.nodeSeq)-1] {
		if n == u {
			return p.adjSeq[i]
		}
	}
	panic(fmt.Sprintf("noc: packet %d routed through unexpected switch %d", p.ID, u))
}

// flitRef identifies one buffered flit.
type flitRef struct {
	p       *pktState
	idx     int   // flit index within the packet
	arrived int64 // cycle the flit entered this buffer
}

// fifo is a bounded flit queue backed by a fixed ring. An earlier version
// popped with items = items[1:], which kept every popped flitRef (and the
// pktState it points to) reachable through the backing array for the life
// of the queue; the ring indices free each slot on pop. The event engine
// subsumes this with index-only arena rings, but the fix is kept here for
// the reference engine and the retention regression test.
type fifo struct {
	items []flitRef // ring storage, allocated once at capacity
	start int       // index of the head element
	n     int       // live element count
	cap   int
}

func (f *fifo) full() bool     { return f.n >= f.cap }
func (f *fifo) empty() bool    { return f.n == 0 }
func (f *fifo) head() *flitRef { return &f.items[f.start] }

func (f *fifo) push(fl flitRef) {
	if f.items == nil {
		f.items = make([]flitRef, f.cap)
	}
	f.items[(f.start+f.n)%f.cap] = fl
	f.n++
}

func (f *fifo) pop() flitRef {
	fl := f.items[f.start]
	f.items[f.start] = flitRef{} // release the pktState reference
	f.start = (f.start + 1) % f.cap
	f.n--
	return fl
}

// refBinding records which packet currently owns an output link.
type refBinding struct {
	p *pktState
	// srcQueue is the index of the source queue at this node: adjacency
	// index for an input buffer, or numInputs for the injection queue.
	srcQueue int
	sent     int
}

// runDESReference is the original runDESHooked core.
func runDESReference(rt *RouteTable, packets []Packet, nm energy.NetworkModel, cfg DESConfig, hooks desHooks) (DESResult, error) {
	t := rt.topo
	n := t.NumSwitches()
	if cfg.BufDepthFlits <= 0 || cfg.WIBufDepthFlits <= 0 || cfg.MaxCycles <= 0 {
		return DESResult{}, fmt.Errorf("noc: bad DES config %+v", cfg)
	}
	// Prepare packet states sorted by (Inject, ID) per source.
	states := make([]*pktState, 0, len(packets))
	bySrc := make([][]*pktState, n)
	var localOnly []*pktState
	for _, pk := range packets {
		if pk.Src < 0 || pk.Src >= n || pk.Dst < 0 || pk.Dst >= n {
			return DESResult{}, fmt.Errorf("noc: packet %d endpoints out of range", pk.ID)
		}
		if pk.Flits <= 0 {
			return DESResult{}, fmt.Errorf("noc: packet %d has %d flits", pk.ID, pk.Flits)
		}
		ps := &pktState{Packet: pk}
		if pk.Src == pk.Dst {
			// Local delivery: consumes no network resources.
			ps.done = true
			ps.ejectCycle = pk.Inject + int64(pk.Flits) - 1
			localOnly = append(localOnly, ps)
			continue
		}
		ps.nodeSeq = rt.Path(pk.Src, pk.Dst)
		ps.adjSeq = rt.paths[pk.Src][pk.Dst]
		states = append(states, ps)
		bySrc[pk.Src] = append(bySrc[pk.Src], ps)
	}
	for s := range bySrc {
		sort.SliceStable(bySrc[s], func(i, j int) bool {
			if bySrc[s][i].Inject != bySrc[s][j].Inject {
				return bySrc[s][i].Inject < bySrc[s][j].Inject
			}
			return bySrc[s][i].ID < bySrc[s][j].ID
		})
	}

	// Buffers: inBuf[v][ai] receives flits over the link Adj[v][ai]
	// (symmetric storage: the reverse direction of the same physical link).
	inBuf := make([][]*fifo, n)
	for v := 0; v < n; v++ {
		inBuf[v] = make([]*fifo, len(t.Adj[v]))
		for ai, l := range t.Adj[v] {
			depth := cfg.BufDepthFlits
			if l.Type == topo.Wireless {
				depth = cfg.WIBufDepthFlits
			}
			inBuf[v][ai] = &fifo{cap: depth}
		}
	}
	// reverse adjacency: rev[u][ai] = index aj at v=Adj[u][ai].To with
	// Adj[v][aj].To == u and matching type/channel.
	rev := make([][]int, n)
	for u := 0; u < n; u++ {
		rev[u] = make([]int, len(t.Adj[u]))
		for ai, l := range t.Adj[u] {
			rev[u][ai] = -1
			for aj, r := range t.Adj[l.To] {
				if r.To == u && r.Type == l.Type && r.Channel == l.Channel {
					rev[u][ai] = aj
					break
				}
			}
			if rev[u][ai] == -1 {
				return DESResult{}, fmt.Errorf("noc: link %d->%d has no reverse", u, l.To)
			}
		}
	}

	// Per-link pipeline delay in cycles: a flit sent at cycle c becomes
	// eligible to move (or be ejected) at c + delay. Throughput stays one
	// flit per cycle per link (pipelined wires).
	delay := make([][]int64, n)
	for u := 0; u < n; u++ {
		delay[u] = make([]int64, len(t.Adj[u]))
		for ai, l := range t.Adj[u] {
			d := int64(math.Round(rt.costs.baseLatency(l)))
			if d < 1 {
				d = 1
			}
			delay[u][ai] = d
		}
	}

	// Output bindings and round-robin arbitration pointers.
	bindings := make([][]*refBinding, n)
	rrPtr := make([][]int, n)
	for u := 0; u < n; u++ {
		bindings[u] = make([]*refBinding, len(t.Adj[u]))
		rrPtr[u] = make([]int, len(t.Adj[u]))
	}
	// injection pointer per source: next packet index in bySrc not yet
	// fully injected.
	injPtr := make([]int, n)

	// Wireless token state: per channel, the ring of WI switches and the
	// current holder index.
	rings := make([][]int, topo.NumChannels)
	for _, wi := range t.WIs {
		ch := t.ChannelOf[wi]
		rings[ch] = append(rings[ch], wi)
	}
	for ch := range rings {
		sort.Ints(rings[ch])
	}
	tokenIdx := make([]int, topo.NumChannels)

	var res DESResult
	remaining := len(states)
	for _, ps := range localOnly {
		res.Delivered++
		lat := ps.ejectCycle - ps.Inject
		res.AvgLatencyCycles += float64(lat)
		if lat > res.MaxLatencyCycles {
			res.MaxLatencyCycles = lat
		}
		if hooks.onDeliver != nil {
			hooks.onDeliver(ps.ID, lat)
		}
	}

	var cycle int64
	for ; remaining > 0 && cycle < cfg.MaxCycles; cycle++ {
		// Phase 1: ejection. Drain every input buffer's head flits destined
		// for this switch (flits must have arrived in an earlier cycle).
		for v := 0; v < n; v++ {
			for ai := range inBuf[v] {
				buf := inBuf[v][ai]
				for !buf.empty() {
					h := buf.head()
					if h.p.Dst != v || h.arrived >= cycle {
						break
					}
					fl := buf.pop()
					res.EnergyPJ += nm.SwitchPJPerFlitPort // ejection port
					fl.p.flitsEjected++
					if fl.p.flitsEjected == fl.p.Flits {
						fl.p.done = true
						fl.p.ejectCycle = cycle
						remaining--
						res.Delivered++
						lat := cycle - fl.p.Inject
						res.AvgLatencyCycles += float64(lat)
						if lat > res.MaxLatencyCycles {
							res.MaxLatencyCycles = lat
						}
						if hooks.onDeliver != nil {
							hooks.onDeliver(fl.p.ID, lat)
						}
					}
				}
			}
		}

		// Phase 2: transfers. One flit per output link per cycle; one flit
		// per wireless channel per cycle, transmitted by the token holder.
		channelUsed := make([]bool, topo.NumChannels)
		channelTailSent := make([]bool, topo.NumChannels)
		channelHeldBusy := make([]bool, topo.NumChannels)
		for u := 0; u < n; u++ {
			numIn := len(t.Adj[u])
			for ai, l := range t.Adj[u] {
				isWireless := l.Type == topo.Wireless
				if isWireless {
					ring := rings[l.Channel]
					if len(ring) == 0 {
						continue
					}
					holder := ring[tokenIdx[l.Channel]]
					if holder != u || channelUsed[l.Channel] {
						// A holder with an in-flight wormhole keeps the
						// token even when it cannot transmit this cycle.
						if holder == u && bindings[u][ai] != nil {
							channelHeldBusy[l.Channel] = true
						}
						continue
					}
				}
				v := l.To
				dst := inBuf[v][rev[u][ai]]
				b := bindings[u][ai]
				if b == nil {
					// Arbitrate a new packet: round-robin over source
					// queues whose head is a routable head flit.
					b = refArbitrate(u, ai, numIn, rrPtr, inBuf, bySrc, injPtr, cycle)
					if b == nil {
						continue
					}
					bindings[u][ai] = b
				}
				if dst.full() {
					if isWireless {
						channelHeldBusy[l.Channel] = true
					}
					continue
				}
				// Forward the next flit of the bound packet if available.
				fl, ok := refTakeFlit(u, b, numIn, inBuf, cycle)
				if !ok {
					if isWireless {
						channelHeldBusy[l.Channel] = true
					}
					continue
				}
				dst.push(flitRef{p: fl.p, idx: fl.idx, arrived: cycle + delay[u][ai] - 1})
				res.TotalFlitHops++
				if hooks.onForward != nil {
					hooks.onForward(u, ai, cycle)
				}
				if isWireless {
					res.EnergyPJ += nm.WirelessHopPJ()
					res.WirelessFlitHops++
					channelUsed[l.Channel] = true
					if fl.idx == fl.p.Flits-1 {
						channelTailSent[l.Channel] = true
					}
				} else {
					res.EnergyPJ += nm.WirelineHopPJ(l.LengthMM)
				}
				b.sent++
				if b.sent == b.p.Flits {
					bindings[u][ai] = nil
					if b.srcQueue == numIn {
						// Source finished injecting this packet: advance
						// the injection queue to the next packet.
						for injPtr[u] < len(bySrc[u]) && bySrc[u][injPtr[u]].flitsInjected == bySrc[u][injPtr[u]].Flits {
							injPtr[u]++
						}
					}
				}
			}
		}

		// Phase 3: token rotation. A holder that finished a packet or had
		// nothing to send passes the token; a holder mid-packet keeps it so
		// channel wormholes are not interleaved.
		for ch := range rings {
			if len(rings[ch]) == 0 {
				continue
			}
			if channelTailSent[ch] || (!channelUsed[ch] && !channelHeldBusy[ch]) {
				tokenIdx[ch] = (tokenIdx[ch] + 1) % len(rings[ch])
			}
		}
	}

	res.Cycles = cycle
	res.Stalled = remaining
	if res.Delivered > 0 {
		res.AvgLatencyCycles /= float64(res.Delivered)
	}
	if remaining > 0 {
		return res, fmt.Errorf("noc: %d packets undelivered after %d cycles (deadlock or overload)", remaining, cfg.MaxCycles)
	}
	return res, nil
}

// refArbitrate scans source queues at node u round-robin for a head flit
// that routes to output ai and returns a fresh binding, or nil.
func refArbitrate(u, ai, numIn int, rrPtr [][]int, inBuf [][]*fifo, bySrc [][]*pktState, injPtr []int, cycle int64) *refBinding {
	numQueues := numIn + 1
	start := rrPtr[u][ai]
	for k := 0; k < numQueues; k++ {
		q := (start + k) % numQueues
		if q < numIn {
			buf := inBuf[u][q]
			if buf.empty() {
				continue
			}
			h := buf.head()
			if h.arrived >= cycle || h.idx != 0 || h.p.Dst == u {
				continue
			}
			if h.p.nextAdjAt(u) == ai {
				rrPtr[u][ai] = (q + 1) % numQueues
				return &refBinding{p: h.p, srcQueue: q}
			}
		} else {
			// Injection queue: the oldest not-fully-injected packet at u.
			ptr := injPtr[u]
			if ptr >= len(bySrc[u]) {
				continue
			}
			ps := bySrc[u][ptr]
			if ps.Inject > cycle || ps.flitsInjected != 0 {
				// Not yet ready, or already being injected under an
				// existing binding elsewhere.
				continue
			}
			if ps.nextAdjAt(u) == ai {
				rrPtr[u][ai] = (q + 1) % numQueues
				return &refBinding{p: ps, srcQueue: numIn}
			}
		}
	}
	return nil
}

// refTakeFlit pops the next flit of the bound packet from its source queue
// if it is at the head and eligible this cycle.
func refTakeFlit(u int, b *refBinding, numIn int, inBuf [][]*fifo, cycle int64) (flitRef, bool) {
	if b.srcQueue == numIn {
		// Injection: synthesize the next flit.
		ps := b.p
		if ps.flitsInjected >= ps.Flits || ps.Inject > cycle {
			return flitRef{}, false
		}
		fl := flitRef{p: ps, idx: ps.flitsInjected}
		ps.flitsInjected++
		return fl, true
	}
	buf := inBuf[u][b.srcQueue]
	if buf.empty() {
		return flitRef{}, false
	}
	h := buf.head()
	if h.p != b.p || h.arrived >= cycle {
		return flitRef{}, false
	}
	return buf.pop(), true
}
