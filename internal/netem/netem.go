// Package netem provides the network elements that experiments are wired
// from: propagation-delay wires, bottleneck links driven by Mahimahi-style
// traces or by bit rates, and per-flow receivers that echo ABC
// feedback. (Per-flow routing lives in internal/topo's forwarding
// tables.)
//
// The emulation semantics deliberately mirror Mahimahi (used by the paper
// for all cellular experiments): a trace-driven link delivers up to one
// MTU's worth of bytes per delivery opportunity, unused opportunities are
// wasted, and the bottleneck buffer is a pluggable qdisc.
//
// A bottleneck link is a service schedule around one shared shell. Port
// (port.go) is the discipline, the downstream element, the recorder
// hookup and the delivered-byte count, and the only code that admits a
// packet, books its sojourn, or counts and forwards it; TraceLink,
// RateLink and wifi.Link embed it by value. A new link model therefore
// writes when it takes from the queue and when it delivers — Recv around
// Admit, then Q.Dequeue, Depart and Deliver at its own instants — and
// gets SetObs, DeliveredBytes, a row of TestLinkConformance and a
// BenchmarkLinkChurn sub-benchmark for free; a model whose service a
// fluid background can share embeds hostPort instead.
package netem

import (
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/trace"
)

// Wire models a fixed propagation delay with unbounded bandwidth. The
// zero value with S, Delay and Dst set is ready to use.
type Wire struct {
	S     *sim.Simulator
	Delay sim.Time
	Dst   packet.Node

	// inflight is the FIFO of packets on the wire: with a constant Delay
	// their delivery times never decrease, so the whole wire costs the
	// event heap one entry. No caller changes Delay after the first
	// packet; should one shrink it, a packet that would overtake falls
	// back to an ordinary event (sim.Chain's contract).
	inflight sim.Chain
	// The padding makes a Wire one 64-byte cache line: every packet it
	// carries writes inflight, and no other object shares the line
	// (TestWireOwnsItsLine).
	_ [24]byte
}

// NewWire returns a wire that delivers packets to dst after delay.
func NewWire(s *sim.Simulator, delay sim.Time, dst packet.Node) *Wire {
	return &Wire{S: s, Delay: delay, Dst: dst}
}

// wireDeliver is the static delivery callback: scheduling it with its
// arguments avoids a per-packet closure on the busiest path in the
// simulator.
func wireDeliver(a, b any) { a.(*Wire).Dst.Recv(b.(*packet.Packet)) }

// Recv implements packet.Node.
func (w *Wire) Recv(p *packet.Packet) {
	w.S.ChainAfterArgs(&w.inflight, w.Delay, wireDeliver, w, p)
}

// DeliveryFunc observes packets delivered to a receiver.
type DeliveryFunc func(now sim.Time, p *packet.Packet)

// TraceLink is a bottleneck link whose transmissions follow a delivery-
// opportunity trace. Each opportunity carries up to one MTU of bytes; the
// remainder of an opportunity is wasted (Mahimahi semantics).
type TraceLink struct {
	hostPort
	// CapWindow is the sliding window used to report µ(t) to capacity-
	// aware qdiscs (the paper's emulation gives routers the link rate).
	CapWindow sim.Time
	// Lookahead, when positive, reports the capacity Lookahead into the
	// future instead of the trailing window: the PK-ABC oracle (§6.6).
	Lookahead sim.Time

	// oppCur and capCur are the link's two streams of trace queries, each a
	// clock that only moves forward: the delivery instants (opportunity,
	// scheduleNext) and the capacity window that slides with now.
	oppCur, capCur trace.Cursor
	// oppFn is the bound opportunity callback, created once so arming the
	// next delivery does not allocate a method-value closure per packet.
	oppFn func()

	// bgDebt carries the fractional opportunity bytes the fluid background
	// has claimed but not yet been charged, so the long-run split is exact
	// and deterministic.
	bgDebt float64

	running bool
}

// NewTraceLink wires a trace-driven link. Capacity-aware qdiscs receive a
// provider reporting the trace's windowed rate.
func NewTraceLink(s *sim.Simulator, tr *trace.Trace, q qdisc.Qdisc, dst packet.Node) *TraceLink {
	l := &TraceLink{CapWindow: 80 * sim.Millisecond, oppCur: tr.Cursor(), capCur: tr.Cursor()}
	l.Port = Port{S: s, Q: q, Dst: dst}
	l.oppFn = l.opportunity
	if ca, ok := q.(qdisc.CapacityAware); ok {
		ca.SetCapacityProvider(l.CapacityBps)
	}
	return l
}

// Trace returns the underlying trace.
func (l *TraceLink) Trace() *trace.Trace { return l.oppCur.Trace() }

// CapacityBps reports the link capacity estimate at time now.
func (l *TraceLink) CapacityBps(now sim.Time) float64 {
	if l.Lookahead > 0 {
		return l.capCur.FutureCapacityBps(now, l.Lookahead)
	}
	if now < l.CapWindow {
		// Early in the run the trailing window is unpopulated; use the
		// forward window so routers do not see a zero-capacity link.
		return l.capCur.FutureCapacityBps(now, l.CapWindow)
	}
	return l.capCur.CapacityBps(now, l.CapWindow)
}

// Recv implements packet.Node: arriving packets enter the qdisc.
func (l *TraceLink) Recv(p *packet.Packet) {
	now := l.S.Now()
	if l.Admit(now, p) && !l.running {
		l.running = true
		l.scheduleNext(now)
	}
}

// scheduleNext arms the next delivery opportunity strictly after now.
func (l *TraceLink) scheduleNext(now sim.Time) {
	l.S.At(l.oppCur.NextOpportunity(now), l.oppFn)
}

// opportunity fires at a trace delivery instant and drains one MTU per
// opportunity scheduled at this exact instant (traces at high rates carry
// several opportunities per millisecond timestamp). A packet's sojourn
// ends at the opportunity that carries it.
func (l *TraceLink) opportunity() {
	now := l.S.Now()
	k := int(l.oppCur.CountIn(now, now+1))
	if k < 1 {
		k = 1
	}
	budget := k * packet.MTU
	if l.bg != nil {
		// The fluid aggregate consumed its share of this opportunity;
		// accumulate fractional bytes so the charge is exact over time.
		l.bgDebt += float64(budget) * l.bg.Share(now)
		if eat := int(l.bgDebt); eat > 0 {
			l.bgDebt -= float64(eat)
			budget -= eat
			if budget < 0 {
				budget = 0
			}
		}
	}
	for budget > 0 {
		p := l.Q.Dequeue(now)
		if p == nil {
			break
		}
		if int(p.Size) > budget && budget < packet.MTU {
			// Does not fit in the remainder of this opportunity; in
			// Mahimahi the packet would wait. Requeueing into an
			// arbitrary qdisc is not possible, so deliver it on this
			// opportunity — with MTU-sized data packets this only
			// affects trailing ACKs and keeps disciplines simple.
			budget = 0
		} else {
			budget -= int(p.Size)
		}
		l.Depart(now, p)
		l.Deliver(p)
	}
	if l.Q.Len() > 0 {
		l.scheduleNext(now)
	} else {
		l.running = false
	}
}

// RateLink is a store-and-forward link with a constant bit rate, changed
// in steps by SetRate; used for wired segments.
type RateLink struct {
	hostPort
	// Rate is the link's capacity in bits/sec.
	Rate float64

	busy bool
}

// NewRateLink wires a link of rate bits/sec. Capacity-aware qdiscs
// receive its CapacityBps.
func NewRateLink(s *sim.Simulator, rate float64, q qdisc.Qdisc, dst packet.Node) *RateLink {
	l := &RateLink{Rate: rate}
	l.Port = Port{S: s, Q: q, Dst: dst}
	if ca, ok := q.(qdisc.CapacityAware); ok {
		ca.SetCapacityProvider(l.CapacityBps)
	}
	return l
}

// CapacityBps reports the link rate. It reads the Rate field at call
// time, so a mid-run SetRate is immediately visible to the discipline and
// to a coupled fluid background.
func (l *RateLink) CapacityBps(sim.Time) float64 { return l.Rate }

// SetRate changes the link's rate mid-run. The transmission in progress
// finishes at the rate it started with; subsequent packets (and
// capacity-aware qdiscs) see the new rate.
func (l *RateLink) SetRate(bps float64) {
	l.Rate = bps
	if l.rec.Enabled(obs.CatLink) {
		l.rec.Emit(int64(l.S.Now()), obs.EvSetRate, l.obsSrc, -1, int64(bps), 0)
	}
}

// ConstRate is the rate of a constant-rate link: bps bits/sec. It
// returns its argument unchanged, and the simulator's own code passes
// rates directly; it stays only because the benchmark module (bench/)
// still calls it.
func ConstRate(bps float64) float64 { return bps }

// Recv implements packet.Node.
func (l *RateLink) Recv(p *packet.Packet) {
	if l.Admit(l.S.Now(), p) && !l.busy {
		l.startNext()
	}
}

// rateLinkFinish is the static transmission-complete callback (no
// per-packet closure).
func rateLinkFinish(a, b any) { a.(*RateLink).finish(b.(*packet.Packet)) }

// startNext begins transmitting the head packet if any; its sojourn ends
// as its transmission starts.
func (l *RateLink) startNext() {
	now := l.S.Now()
	p := l.Q.Dequeue(now)
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.Depart(now, p)
	rate := l.Rate
	if l.bg != nil {
		// Residual service: the fluid aggregate holds its share of the
		// link for this coupling step.
		rate *= 1 - l.bg.Share(now)
	}
	if rate <= 0 {
		// Zero-rate interval: poll again shortly rather than divide by
		// zero; the packet transmits when capacity returns (re-enqueueing
		// at the head is impossible generically, so treat the packet as
		// transmitting across the outage).
		l.S.AfterArgs(sim.Millisecond, rateLinkFinish, l, p)
		return
	}
	txTime := sim.FromSeconds(float64(p.Size*8) / rate)
	l.S.AfterArgs(txTime, rateLinkFinish, l, p)
}

// finish completes a transmission and hands the packet on.
func (l *RateLink) finish(p *packet.Packet) {
	l.Deliver(p)
	l.startNext()
}
