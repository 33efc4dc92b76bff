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

// Wire models a fixed propagation delay with unbounded bandwidth: one
// event per packet it carries. The zero value with S, Delay and Dst set
// is ready to use. On a static topology graph a packet skips the wires of
// a bare stretch and crosses them, up to the flow's access tail, as one
// arrival (internal/topo's wire runs); a wire a packet does cross — the
// only wire of its stretch, or any wire of a graph that is not static —
// behaves as here.
//
// A wire that FoldAcks ends at a receiver whose ACKs return over a wire
// of their own, and it carries a data packet with no event of its own:
// the receiver takes the packet as it enters, stamped with its arrival
// instant, and only the ACK is scheduled, to reach the far end of the
// return wire when it would have (Carry).
type Wire struct {
	S     *sim.Simulator
	Delay sim.Time
	Dst   packet.Node

	// line is the simulator's delay line for the delay of the wire's
	// last event: Delay, or Delay plus the return wire's when the ACK
	// rode it. With a constant delay their delivery times never
	// decrease, so every wire of one delay together costs the event heap
	// one entry. A packet writes nothing to the wire; only the first
	// packet, or the first after the delay changed, takes a new handle,
	// and the packets already in flight keep their instants.
	line sim.Line
	// fold is Dst when FoldAcks found it a receiver that can take
	// packets ahead of their arrival (nil = every packet is an event).
	fold *Receiver
}

// FoldAcks resolves, once, whether w folds the ACK's return into the
// data's arrival: it does when Dst is a Receiver whose Out is a Wire,
// the implicit direct ACK path. Call it after the receiver's Out is set;
// it reports whether the fold applies.
func (w *Wire) FoldAcks() bool {
	if r, ok := w.Dst.(*Receiver); ok && r.ret != nil {
		w.fold = r
	}
	return w.fold != nil
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
func (w *Wire) Recv(p *packet.Packet) { w.Carry(p, 0, &w.line) }

// Carry puts p on the wire behind a bare stretch of delay lead in front
// of it (internal/topo's wire run to the terminal, or none): p reaches
// Dst lead+Delay from now. The event goes on the delay line l, the
// caller's handle. On a folding wire whose arrival falls within the
// simulator's horizon, the receiver takes p now, with that arrival
// instant, and only its ACK is scheduled (Receiver.ahead); the ACK then
// takes its sequence number as p enters rather than as it arrives,
// which is the fold's one visible effect: an order among events due at
// one instant.
func (w *Wire) Carry(p *packet.Packet, lead sim.Time, l *sim.Line) {
	d := lead + w.Delay
	if w.fold != nil && w.fold.ahead(p, d, l) {
		return
	}
	if !l.Is(w.S, d) {
		*l = w.S.Line(d)
	}
	l.AfterArgs(wireDeliver, w, p)
}

// DeliveryFunc observes packets delivered to a receiver.
type DeliveryFunc func(now sim.Time, p *packet.Packet)

// TraceLink is a bottleneck link whose transmissions follow a delivery-
// opportunity trace. Each opportunity carries up to one MTU of bytes; the
// remainder of an opportunity is wasted (Mahimahi semantics).
type TraceLink struct {
	hostPort
	// Lookahead, when positive, reports the capacity Lookahead into the
	// future instead of the trailing window: the PK-ABC oracle (§6.6).
	Lookahead sim.Time

	// oppCur and capCur are the link's two streams of trace queries, each a
	// clock that only moves forward: the delivery instants (Recv waking the
	// link, opportunity stepping it) and the capacity window that slides
	// with now.
	oppCur, capCur trace.Cursor
	// mu memoises CapacityBps for one instant: a capacity-aware router
	// asks for µ(now) once or twice per packet it dequeues, and every
	// packet of an opportunity leaves at the same now. CapacityBps is a
	// pure function of now and Lookahead, the memo's key, so the memo is
	// exact; muAt starts before any instant the clock can show.
	muAt, muAhead sim.Time
	mu            float64

	// bgDebt carries the fractional opportunity bytes the fluid background
	// has claimed but not yet been charged, so the long-run split is exact
	// and deterministic.
	bgDebt float64

	running bool
}

// capWindow is the sliding window over which a trace link reports µ(t)
// to capacity-aware qdiscs (the paper's emulation gives routers the link
// rate).
const capWindow = 80 * sim.Millisecond

// NewTraceLink wires a trace-driven link. Capacity-aware qdiscs receive a
// provider reporting the trace's windowed rate.
func NewTraceLink(s *sim.Simulator, tr *trace.Trace, q qdisc.Qdisc, dst packet.Node) *TraceLink {
	l := &TraceLink{oppCur: tr.Cursor(), capCur: tr.Cursor(), muAt: -1}
	l.Port = Port{S: s, Q: q, Dst: dst}
	if ca, ok := q.(qdisc.CapacityAware); ok {
		ca.SetCapacityProvider(l.CapacityBps)
	}
	return l
}

// Trace returns the underlying trace.
func (l *TraceLink) Trace() *trace.Trace { return l.oppCur.Trace() }

// CapacityBps reports the link capacity estimate at time now, reading the
// trace once per instant.
func (l *TraceLink) CapacityBps(now sim.Time) float64 {
	if now != l.muAt || l.Lookahead != l.muAhead {
		l.muAt, l.muAhead, l.mu = now, l.Lookahead, l.capacityBps(now)
	}
	return l.mu
}

// capacityBps is CapacityBps without the memo.
func (l *TraceLink) capacityBps(now sim.Time) float64 {
	if l.Lookahead > 0 {
		return l.capCur.FutureCapacityBps(now, l.Lookahead)
	}
	if now < capWindow {
		// Early in the run the trailing window is unpopulated; use the
		// forward window so routers do not see a zero-capacity link.
		return l.capCur.FutureCapacityBps(now, capWindow)
	}
	return l.capCur.CapacityBps(now, capWindow)
}

// Recv implements packet.Node: arriving packets enter the qdisc.
func (l *TraceLink) Recv(p *packet.Packet) {
	now := l.S.Now()
	if l.Admit(now, p) && !l.running {
		l.running = true
		// The first delivery instant strictly after now.
		l.S.AtArgs(l.oppCur.NextOpportunity(now), traceLinkOpportunity, l, nil)
	}
}

// traceLinkOpportunity is the static delivery-opportunity callback (no
// per-packet closure).
func traceLinkOpportunity(a, _ any) { a.(*TraceLink).opportunity() }

// opportunity fires at a trace delivery instant and drains one MTU per
// opportunity scheduled at this exact instant (traces at high rates carry
// several opportunities per millisecond timestamp). A packet's sojourn
// ends at the opportunity that carries it.
func (l *TraceLink) opportunity() {
	now := l.S.Now()
	k, next := l.oppCur.Step(now)
	if k < 1 {
		k = 1
	}
	budget := int(k) * packet.MTU
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
		l.S.AtArgs(next, traceLinkOpportunity, l, nil)
	} else {
		l.running = false
	}
}

// RateLink is a store-and-forward link with a constant bit rate, changed
// in steps by SetRate; used for wired segments.
//
// A rate link serves its queue in one of two ways. The eventful way
// schedules an event for each transmission's end, which delivers the
// packet and starts the next one. A lazily served link (ServeLazily)
// schedules none: since a transmission's end is known when it starts,
// the link starts its transmissions in order, each at its own instant,
// whenever something reaches it — an arrival, a handoff of its own, a
// simulation-side reader (Advance) — and schedules only the packet's
// arrival at the far end of the bare stretch behind it (Handoff).
type RateLink struct {
	hostPort
	// Rate is the link's capacity in bits/sec.
	Rate float64

	// busy is set while a transmission is in progress or, on a lazy
	// link, while one ended at free and the dequeue that follows it is
	// still owed.
	busy bool

	// far, set by ServeLazily, resolves each packet's handoff; nil =
	// the eventful way. line holds the link's handoffs, which fall due
	// in the order of their transmissions, and late the arrivals past
	// the simulator's horizon that a folding receiver cannot take
	// ahead. free is the end of the last transmission started, and
	// serving its bytes.
	far        Stretch
	line, late sim.Line
	free       sim.Time
	serving    int64
	// lateN counts the arrivals pending on late: while one is, no
	// packet folds, so a receiver takes its packets in order when a
	// run continues past the horizon the late ones were scheduled
	// under.
	lateN int
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
	if l.far != nil {
		l.lazyRecv(p)
		return
	}
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
	l.S.AfterArgs(txTime(p, rate), rateLinkFinish, l, p)
}

// txTime is p's serialisation time at rate bits/sec.
func txTime(p *packet.Packet, rate float64) sim.Time {
	return sim.FromSeconds(float64(p.Size*8) / rate)
}

// finish completes a transmission and hands the packet on.
func (l *RateLink) finish(p *packet.Packet) {
	l.Deliver(p)
	l.startNext()
}

// A Handoff is where a lazily served link's packet goes once it has
// crossed the bare stretch of wire behind the link: delay after its
// transmission ends, dst takes it. When dst is a flow's receiver behind
// a tail wire that folds the ACK's return (Wire.FoldAcks), the receiver
// takes the packet as its transmission starts, stamped with its arrival
// instant, and the handoff's event is the ACK's return to the sender.
type Handoff struct {
	l     *RateLink
	delay sim.Time
	dst   packet.Node
	fold  *Receiver
}

// A Stretch resolves the handoff of each packet a lazily served link
// starts to transmit (ServeLazily).
type Stretch interface {
	Handoff(p *packet.Packet) *Handoff
}

// Handoff returns the handoff of the packets that reach dst d after
// their transmission on l ends. A dst that is a Wire is the flow's
// access tail: its delay adds to d, and the handoff goes to the wire's
// far end, folding the ACK's return when the wire does.
func (l *RateLink) Handoff(d sim.Time, dst packet.Node) Handoff {
	if w, ok := dst.(*Wire); ok {
		return Handoff{l: l, delay: d + w.Delay, dst: w.Dst, fold: w.fold}
	}
	return Handoff{l: l, delay: d, dst: dst}
}

// Delays reports how long after a transmission ends the packet reaches
// the handoff's far end, and when the event the handoff schedules falls
// due: the arrival, or the ACK's return to the sender when the handoff
// folds.
func (h *Handoff) Delays() (arrive, due sim.Time) {
	if h.fold != nil {
		return h.delay, h.delay + h.fold.ret.Delay
	}
	return h.delay, h.delay
}

// Folds reports whether the handoff folds the ACK's return.
func (h *Handoff) Folds() bool { return h.fold != nil }

// ServeLazily switches the idle link to lazy service: far resolves each
// packet's handoff as its transmission starts. The handoffs far returns
// must share their Delays, so that the link's handoffs fall due in the
// order of their transmissions and each busy link keeps one heap entry;
// the link's private lines panic on a handoff due before its
// predecessor. The discipline must draw no randomness at dequeue, and
// the link's rate must be positive, never set again and shared with no
// fluid background: a lazy link dequeues at instants behind the clock.
func (l *RateLink) ServeLazily(far Stretch) {
	l.far, l.line, l.late = far, l.S.NewLine(), l.S.NewLine()
}

// Lazy reports whether the link serves its queue lazily.
func (l *RateLink) Lazy() bool { return l.far != nil }

// lazyHandoff and lazyReturn are the static handoff callbacks: the link
// catches up to the clock, then the packet reaches the handoff's far
// end, or the ACK the sender. lazyLate is the late line's: the receiver
// takes the packet before the link catches up, so that a packet the
// catching up folds is taken after it.
func lazyHandoff(a, b any) {
	h := a.(*Handoff)
	h.l.Advance()
	h.dst.Recv(b.(*packet.Packet))
}

func lazyReturn(a, b any) {
	h := a.(*Handoff)
	h.l.Advance()
	h.fold.ret.Dst.Recv(b.(*packet.Packet))
}

func lazyLate(a, b any) {
	h := a.(*Handoff)
	h.dst.Recv(b.(*packet.Packet))
	h.l.lateN--
	h.l.Advance()
}

// lazyRecv is Recv on a lazy link. The transmissions due by now start
// before p is offered: a departure and an arrival at one instant meet
// the queue in that order. An idle link starts p's at once.
func (l *RateLink) lazyRecv(p *packet.Packet) {
	now := l.S.Now()
	l.Advance()
	if l.Admit(now, p) && !l.busy {
		l.busy, l.free = true, now
		l.Advance()
	}
}

// Advance starts, in order and each at its own instant, every
// transmission of a lazy link that starts at or before the clock: after
// each transmission that ended by then, it makes the dequeue the
// eventful way makes as that transmission ends. It draws no randomness.
// A lazy link calls it on each arrival and each handoff; a
// simulation-side reader of the link, its discipline or the receivers
// behind it calls it first, and an out-of-band reader never does. It
// does nothing on an eventful link.
func (l *RateLink) Advance() {
	if l.far == nil {
		return
	}
	for now := l.S.Now(); l.busy && l.free <= now; {
		st := l.free
		p := l.Q.Dequeue(st)
		if p == nil {
			l.busy = false
			return
		}
		l.Depart(st, p)
		l.free = st + txTime(p, l.Rate)
		l.hand(p)
	}
}

// hand schedules p's handoff for the transmission ending at l.free and
// counts p delivered. A folding receiver takes p now if its arrival
// lies within the simulator's horizon, and only the ACK is scheduled;
// an arrival past the horizon, and every one behind it while it is
// pending, goes on the late line, since it can fall due before ACKs
// already on the other.
func (l *RateLink) hand(p *packet.Packet) {
	l.count(p)
	l.serving = int64(p.Size)
	h := l.far.Handoff(p)
	at := l.free + h.delay
	switch {
	case h.fold == nil:
		l.line.AtArgs(at, lazyHandoff, h, p)
	case at > l.S.Horizon() || l.lateN > 0:
		l.lateN++
		l.late.AtArgs(at, lazyLate, h, p)
	default:
		// A static graph's class delivers only the flow's own data to
		// its receiver, so take always returns an ACK here.
		ack := h.fold.take(p, at)
		l.line.AtArgs(at+h.fold.ret.Delay, lazyReturn, h, ack)
		p.Release()
	}
}

// Serving reports the bytes of a lazy link's transmission in progress:
// dequeued and handed on, not yet delivered. It is 0 on an eventful
// link, whose transmission in progress is an event's argument.
func (l *RateLink) Serving() int64 {
	if l.far != nil && l.busy && l.free > l.S.Now() {
		return l.serving
	}
	return 0
}

// DeliveredBytes reports the bytes whose transmission ended by now.
func (l *RateLink) DeliveredBytes() int64 { return l.delivered - l.Serving() }
