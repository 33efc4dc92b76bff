// Package cc provides the sender-side transport framework and the
// congestion-control algorithms the paper evaluates against ABC.
//
// An Endpoint owns everything every scheme shares — sequencing, in-flight
// accounting, RTT estimation, dup-ACK and RTO loss recovery, ACK-clocked
// and paced transmission — and delegates window/rate decisions to an
// Algorithm. ABC itself (package internal/abc) plugs into the same
// interface, exactly as the paper's kernel module plugs into pluggable
// TCP.
//
// The endpoint's scoreboard exploits that sequence numbers are handed out
// consecutively: outstanding packets live in a ring of slots indexed by
// sequence number over the span [base, nextSeq), each slot free, in flight
// or lost and queued for retransmission. Acknowledging, declaring lost
// and retransmitting a packet are each an index and a state change; loss
// detection is a pointer moving up the span (see Endpoint.ring for the
// rules base and low obey).
//
// An endpoint schedules an event only when it has work for one. Besides
// the pacer of a paced sender, its one timer is the housekeeping wake
// (see Endpoint.Start): it checks the retransmission timeout and polls
// the source, at instants on a 10 ms grid counted from Start. A flow that
// clocks itself (backlogged, or one finite transfer) is woken only for an
// instant at which the timeout could fire: a few times a second while it
// sends, never once it has completed, and Stop cancels what is pending. A
// flow that is driven from outside (a source that refills, an application
// queueing transfers) is woken at every grid instant.
package cc

import (
	"math"

	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
)

// AckInfo summarizes one acknowledgement for an Algorithm.
type AckInfo struct {
	// Ack is the raw acknowledgement, carrying accel/brake and ECN echo.
	Ack *packet.Packet
	// RTT is the sample from this ACK; valid only if RTTValid.
	RTT      sim.Time
	RTTValid bool
	// AckedBytes is the number of newly acknowledged bytes (0 for a
	// duplicate or stale ACK).
	AckedBytes int
	// Inflight is the number of packets outstanding after this ACK.
	Inflight int
}

// Algorithm is a congestion-control scheme.
type Algorithm interface {
	// OnAck processes every acknowledgement.
	OnAck(now sim.Time, e *Endpoint, info AckInfo)
	// OnCongestion signals at most one loss/CE event per window.
	OnCongestion(now sim.Time, e *Endpoint)
	// OnRTO signals a retransmission timeout.
	OnRTO(now sim.Time, e *Endpoint)
	// CwndPkts returns the current window in packets; the endpoint sends
	// while fewer packets are in flight.
	CwndPkts() float64
	// Reset puts the algorithm back in exactly the state its scheme's
	// constructor returns, so that one instance can carry flow after
	// flow. A variant's configuration survives it (an ABC-MIMD sender
	// stays MIMD), and so does storage it can reuse (BBR's filter keeps
	// its array, emptied). Every constructor builds its struct and calls
	// Reset, so a scheme writes its initial state in one place.
	Reset()
}

// Pacer is implemented by rate-based algorithms (BBR, RCP, PCC, Sprout,
// Verus). When implemented and enabled, the endpoint sends on a pacing
// timer instead of purely ACK-clocked.
type Pacer interface {
	// PacingRate returns the current sending rate in bits/sec, or ok
	// false to fall back to ACK clocking.
	PacingRate(now sim.Time) (bps float64, ok bool)
}

// DataStamper lets an algorithm annotate outgoing data packets (ABC marks
// accelerate; XCP fills its congestion header).
type DataStamper interface {
	StampData(now sim.Time, e *Endpoint, p *packet.Packet)
}

// CEHandler is implemented by algorithms that consume CE echoes
// themselves (ABC's proxied encoding uses CE as the brake signal); the
// endpoint then suppresses its default CE-is-congestion behaviour.
type CEHandler interface {
	HandlesCE() bool
}

// Source models application data availability. A nil source means a
// backlogged (iperf-like) flow.
type Source interface {
	// Available reports whether a packet's worth of data is ready.
	Available(now sim.Time) bool
	// OnSend informs the source that n bytes were sent.
	OnSend(now sim.Time, n int)
	// Done reports that the flow has no further data ever (flow ends).
	Done() bool
}

// A scoreboard slot is free (never sent, or acknowledged), in flight, or
// declared lost and waiting in lostQueue for its retransmission.
const (
	slotFree uint8 = iota
	slotInflight
	slotLost
)

// sent is one scoreboard slot: the state of the sequence number that maps
// to it (see Endpoint.ring).
type sent struct {
	sentAt sim.Time
	size   int32
	state  uint8
	retx   bool
}

// initialRing is the scoreboard's starting size in slots; it doubles
// whenever the outstanding span fills it.
const initialRing = 16

// pktSize is every data packet's size, and reorderThresh the dup-ACK
// reordering threshold in packets: a packet reorderThresh or more below
// the highest SACKed sequence is declared lost.
const (
	pktSize       = packet.MTU
	reorderThresh = 3
)

// housekeepingTick is the spacing of the grid of instants, counted from
// Start, at which an endpoint checks its retransmission timer and polls
// a source that had nothing to send (see Start).
const housekeepingTick = 10 * sim.Millisecond

// Endpoint is one sender. It implements packet.Node to receive ACKs.
type Endpoint struct {
	S    *sim.Simulator
	Flow int
	// Out is the first hop towards the receiver.
	Out packet.Node
	Alg Algorithm
	// Src is the data source; nil means backlogged.
	Src Source
	// MinRTO floors the retransmission timeout.
	MinRTO sim.Time
	// OnComplete fires once when a finite source has been fully
	// delivered and acknowledged.
	OnComplete func(now sim.Time)
	// Tally is the flow's packet books: every data packet the endpoint
	// sends and, through the receiver's NewAck, every ACK of one, and how
	// each ended. Workload-spawned flows also tear their routes down with
	// their last packet through it (packet.Tally). The endpoint draws its
	// data packets through it, so give it the run's packet arena
	// (UseArena) before Start.
	Tally packet.Tally

	started bool
	stopped bool

	// The scoreboard. Sequence numbers are handed out consecutively, so
	// everything outstanding lies in the span [base, nextSeq) and ring, a
	// power of two of slots indexed by seq & (len-1) and at least as long
	// as the span, holds one slot per sequence. base is the lowest
	// sequence whose slot is not free: it never passes a packet that is
	// in flight or waiting in lostQueue, so a retransmission finds its
	// slot. low is the loss scan pointer: no slot in [base, low) is in
	// flight. A retransmission re-enters below everything else
	// outstanding and pulls low back down to itself.
	ring     []sent
	base     int64
	low      int64
	nextSeq  int64
	inflight int   // slots in flight
	hiSacked int64 // highest individually acked sequence
	cumAcked int64
	// lostQueue[lostHead:] are the sequences awaiting retransmission, in
	// ascending order; the consumed prefix is dropped when the queue drains.
	lostQueue []int64
	lostHead  int

	srtt, rttvar sim.Time
	minRTT       sim.Time
	lastAckAt    sim.Time
	rtoBackoff   int

	recoveryUntil int64 // congestion events below this seq are merged

	// Stats.
	SentPackets  int64
	RetxPackets  int64
	AckedPackets int64
	AckedBytes   int64
	LostPackets  int64
	CEEchoes     int64

	pacing        bool
	completeFired bool

	// Housekeeping (see Start). startAt anchors the grid. While wakeArmed,
	// wake is the pending housekeeping event and wakeFor the deadline it
	// was armed for: it fires at or before the first grid instant at or
	// after wakeFor. polled is set, for good, once the flow has shown that
	// it is driven from outside: its source had nothing ready without
	// being done, or BeginTransfer was called.
	startAt   sim.Time
	wake      sim.Timer
	wakeFor   sim.Time
	wakeArmed bool
	polled    bool
	// pace is a paced sender's pending pacing event: one is pending from
	// Start until Stop, which cancels it.
	pace sim.Timer

	// rec/obsSrc feed per-ACK congestion-control state (EvCwnd) to the
	// flight recorder (obs.Sink); nil rec = off.
	rec    *obs.Recorder
	obsSrc int32
}

// SetObs implements obs.Sink: every processed ACK emits an EvCwnd event
// (A = cwnd in 1/1024 packets, B = pacing rate in bits/sec, 0 when
// ACK-clocked) under the given source id.
func (e *Endpoint) SetObs(rec *obs.Recorder, src int32) { e.rec, e.obsSrc = rec, src }

// NewEndpoint wires a sender for the flow. Call Start to begin.
func NewEndpoint(s *sim.Simulator, flow int, out packet.Node, alg Algorithm) *Endpoint {
	e := new(Endpoint)
	e.Init(s, flow, out, alg)
	return e
}

// Init readies e as NewEndpoint would return it, keeping the storage of
// its scoreboard ring (cleared) and retransmission queue: how a sender
// whose flow has ended carries the next one. Every other field, Src,
// OnComplete and the Tally included, starts from zero, so e must be
// stopped with none of its packets live (Tally.Live) and no event of its
// own pending, which Stop sees to.
func (e *Endpoint) Init(s *sim.Simulator, flow int, out packet.Node, alg Algorithm) {
	ring := e.ring
	if ring == nil {
		ring = make([]sent, initialRing)
	} else {
		clear(ring)
	}
	*e = Endpoint{
		S:         s,
		Flow:      flow,
		Out:       out,
		Alg:       alg,
		MinRTO:    250 * sim.Millisecond,
		ring:      ring,
		lostQueue: e.lostQueue[:0],
		minRTT:    math.MaxInt64,
	}
}

// Start begins transmission at the current simulation time. Src and
// MinRTO are set before it and left alone afterwards: the endpoint works
// out when it next needs waking from Src and MinRTO as they are at each
// of its events, so a source swapped or a floor lowered in between would
// go unnoticed until the next one.
//
// Start also anchors the housekeeping grid, the instants Start + k·10 ms.
// Housekeeping is checkRTO followed by trySend (a paced sender sends from
// paceNext instead), and it only ever runs on the grid, as the 100 Hz
// tick it replaces did. What differs is which grid instants it runs at:
//
//   - A flow that clocks itself — backlogged, or sending one finite
//     transfer — can only need housekeeping for its timeout, at the first
//     grid instant at or after lastAckAt + rto(), and only while data is
//     outstanding: everything else it does, it does on an ACK. ACKs keep
//     moving that deadline later and nobody re-arms for them: the wake
//     fires where it was, finds nothing due and arms itself about one RTO
//     ahead. The deadline moves earlier only when a packet is sent with
//     none in flight and no wake pending, or when rto() shrinks (a
//     backoff reset, a falling variance), and armWake catches those with
//     one compare. With nothing outstanding there is no wake.
//   - A flow that is driven from outside is polled at every grid instant,
//     as the tick did, from the moment it shows what it is: its source
//     had nothing ready and was not done (RateLimited, OnOff, Gated), or
//     BeginTransfer was called (an application's persistent flow). When
//     Available is called is part of the result, because it may refill a
//     token bucket; and what such a flow does at a grid instant (send
//     what the source released, time out the flight it sent after an idle
//     period, see checkRTO) ties with whatever else runs every 10 ms on
//     the same phase: other flows started together with it, a fluid
//     background's step. Events at one instant run in scheduling order,
//     and a chain of wakes each scheduled from the one before keeps the
//     place among them it took at Start, which a wake armed on demand
//     cannot get back.
//   - A stopped endpoint has no wake.
//
// The wake of a self-clocked flow also fires at the grid instant before
// the one at which it expects to act; armWake says why.
func (e *Endpoint) Start() {
	if e.started {
		return
	}
	e.started = true
	e.startAt = e.S.Now()
	e.lastAckAt = e.startAt
	if p, ok := e.Alg.(Pacer); ok {
		if _, use := p.PacingRate(e.startAt); use {
			e.pacing = true
		}
	}
	if e.pacing {
		e.paceNext()
	} else {
		e.trySend()
	}
	e.armWake(e.startAt)
}

// Stop halts the sender (flow departure in staggered-arrival experiments)
// and takes its pending wake and pacing event out of the event queue: a
// stopped endpoint has no event pending.
func (e *Endpoint) Stop() {
	e.stopped = true
	e.wake.Stop()
	e.wakeArmed = false
	e.pace.Stop()
}

// Stopped reports whether Stop has been called.
func (e *Endpoint) Stopped() bool { return e.stopped }

// housekeep is the wake: what the periodic tick did at a grid instant,
// then the decision when to look again.
func (e *Endpoint) housekeep() {
	e.wakeArmed = false
	e.checkRTO()
	if !e.pacing {
		e.trySend()
	}
	e.armWake(e.S.Now() + 1)
}

// endpointWake is housekeep as a static event callback: arming the wake
// allocates nothing.
func endpointWake(a, _ any) { a.(*Endpoint).housekeep() }

// endpointPace is paceNext as a static event callback, for the same
// reason.
func endpointPace(a, _ any) { a.(*Endpoint).paceNext() }

// armWake makes sure a wake is pending for the earliest grid instant, not
// before from, at which housekeeping could do something. Every entry
// point (Start, BeginTransfer, Recv, paceNext, housekeep) calls it once,
// last, with from = now; housekeep itself looks strictly ahead. On the
// per-ACK path it is the compare below and nothing else: an ACK moves
// the timeout later, and a wake armed for an earlier deadline fires,
// finds nothing due and arms again from there.
func (e *Endpoint) armWake(from sim.Time) {
	if e.stopped {
		return
	}
	// A flow driven from outside is polled at every grid instant, which
	// covers the timeout too. A self-clocked one can only need the
	// timeout.
	need := from
	if !e.polled {
		if e.inflight == 0 {
			return
		}
		// The deadline may already be behind us: sending does not
		// refresh lastAckAt (see checkRTO). The tick then fired at its
		// next instant.
		if d := e.lastAckAt + e.rto(); d > need {
			need = d
		}
	}
	if e.wakeArmed {
		if need >= e.wakeFor {
			return
		}
		e.wake.Stop()
	}
	n := (need - e.startAt + housekeepingTick - 1) / housekeepingTick
	if n < 1 {
		n = 1
	}
	at := e.startAt + n*housekeepingTick
	// Also fire at the grid instant before, as a pass that does nothing
	// but arm the wake for at: events at one instant run in the order
	// they were scheduled, and the tick at any instant was scheduled from
	// the tick before it. An ACK that reaches the sender at the very
	// instant its timeout expires was put on the wire earlier than that
	// and wins the tie; against a wake armed long before, it would lose,
	// and the flow would time out spuriously.
	if early := at - housekeepingTick; early > e.S.Now() {
		at = early
	}
	e.wake = e.S.AtArgs(at, endpointWake, e, nil)
	e.wakeFor = need
	e.wakeArmed = true
}

// BeginTransfer re-arms OnComplete for the next application transfer on
// a persistent flow and kicks transmission immediately. Callers must add
// the transfer's bytes to the source before calling, or an already-idle
// flow completes the empty transfer on the spot.
func (e *Endpoint) BeginTransfer() {
	e.completeFired = false
	e.polled = true
	if !e.started || e.stopped {
		return
	}
	if !e.pacing {
		e.trySend()
	}
	e.armWake(e.S.Now())
}

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (e *Endpoint) SRTT() sim.Time { return e.srtt }

// MinRTT returns the minimum RTT observed (0 before the first sample).
func (e *Endpoint) MinRTT() sim.Time {
	if e.minRTT == math.MaxInt64 {
		return 0
	}
	return e.minRTT
}

// Inflight returns the number of outstanding packets.
func (e *Endpoint) Inflight() int { return e.inflight }

// NextSeq returns the next unsent sequence number.
func (e *Endpoint) NextSeq() int64 { return e.nextSeq }

// rto returns the current retransmission timeout with backoff applied.
func (e *Endpoint) rto() sim.Time {
	base := e.MinRTO
	if e.srtt > 0 {
		calc := e.srtt + 4*e.rttvar
		if calc > base {
			base = calc
		}
	}
	// Exponential backoff capped at one second: long caps let a flow
	// joining a standing-full droptail queue starve for tens of seconds
	// between attempts.
	for i := 0; i < e.rtoBackoff && base < sim.Second; i++ {
		base *= 2
	}
	if base > 2*sim.Second {
		base = 2 * sim.Second
	}
	return base
}

// checkRTO fires a timeout if nothing has been acknowledged for an RTO
// while data is outstanding.
//
// Known defect, pinned by TestSpuriousRTOAfterIdle and the "idle"
// timeline golden rather than fixed: the timer runs from lastAckAt, which
// only an ACK or a timeout refreshes, not from when the oldest
// outstanding packet was sent. A persistent flow that sat idle for longer
// than rto() therefore declares its next flight lost at the first grid
// instant after sending it and sends it twice. The app-rpc and app-video
// goldens embody this; fixing it is a deliberate golden update (ROADMAP
// item 1).
func (e *Endpoint) checkRTO() {
	if e.inflight == 0 {
		return
	}
	now := e.S.Now()
	if now-e.lastAckAt < e.rto() {
		return
	}
	e.lastAckAt = now
	e.rtoBackoff++
	// Declare everything outstanding lost and retransmit from the
	// oldest (go-back-N style recovery keeps the framework simple and
	// is only exercised during outages). The walk is in sequence order,
	// so each queueLost is an append unless older losses are still queued.
	for seq := e.low; seq < e.nextSeq; seq++ {
		if s := e.slot(seq); s.state == slotInflight {
			s.state = slotLost
			e.queueLost(seq)
		}
	}
	e.inflight = 0
	e.low = e.nextSeq
	// Counts the whole queue, so a loss still waiting from before the
	// timeout is counted a second time; experiment results depend on it.
	e.LostPackets += int64(len(e.lostQueue) - e.lostHead)
	e.recoveryUntil = e.nextSeq
	e.Alg.OnRTO(now, e)
	if !e.pacing {
		e.trySend()
	}
}

// slot returns the scoreboard slot of seq, which must lie in the span.
func (e *Endpoint) slot(seq int64) *sent {
	return &e.ring[seq&int64(len(e.ring)-1)]
}

// acked frees the slot of an acknowledged sequence and returns it, or nil
// when the ACK acknowledges nothing: its sequence is outside the span, or
// its slot is not in flight (a duplicate ACK; the original's ACK arriving
// after a spurious loss declaration, the retransmission still queued).
func (e *Endpoint) acked(seq int64) *sent {
	if seq < e.base || seq >= e.nextSeq {
		return nil
	}
	s := e.slot(seq)
	if s.state != slotInflight {
		return nil
	}
	s.state = slotFree
	e.inflight--
	for e.base < e.nextSeq && e.slot(e.base).state == slotFree {
		e.base++
	}
	if e.low < e.base {
		e.low = e.base
	}
	return s
}

// growRing doubles the ring, moving every slot of the span to its new index.
func (e *Endpoint) growRing() {
	bigger := make([]sent, 2*len(e.ring))
	for seq := e.base; seq < e.nextSeq; seq++ {
		bigger[seq&int64(len(bigger)-1)] = *e.slot(seq)
	}
	e.ring = bigger
}

// queueLost inserts seq into the ascending retransmission queue. Losses
// are found in sequence order, so this is an append except when a lower
// sequence is declared lost while higher ones still wait (a timed-out
// retransmission).
func (e *Endpoint) queueLost(seq int64) {
	q := append(e.lostQueue, seq)
	for i := len(q) - 1; i > e.lostHead && q[i] < q[i-1]; i-- {
		q[i], q[i-1] = q[i-1], q[i]
	}
	e.lostQueue = q
}

// popLost removes and returns the lowest queued sequence.
func (e *Endpoint) popLost() int64 {
	seq := e.lostQueue[e.lostHead]
	e.lostHead++
	if e.lostHead == len(e.lostQueue) {
		e.lostQueue, e.lostHead = e.lostQueue[:0], 0
	}
	return seq
}

// available reports whether the source has data.
func (e *Endpoint) available() bool {
	if e.Src == nil {
		return true
	}
	return e.Src.Available(e.S.Now())
}

// sourceDone reports whether the flow has sent everything it ever will.
func (e *Endpoint) sourceDone() bool {
	return e.Src != nil && e.Src.Done()
}

// trySend transmits while the window and source allow (ACK-clocked mode).
func (e *Endpoint) trySend() {
	if e.stopped {
		return
	}
	for e.canSend() {
		e.sendOne()
	}
	e.maybeComplete()
}

// canSend reports whether one more packet may be transmitted now.
func (e *Endpoint) canSend() bool {
	if e.stopped {
		return false
	}
	if float64(e.inflight) >= e.Alg.CwndPkts() {
		return false
	}
	if len(e.lostQueue) > 0 {
		return true // retransmissions bypass the source
	}
	if e.available() && !e.sourceDone() {
		return true
	}
	if !e.sourceDone() {
		e.polled = true // a source that refills: housekeeping polls it from now on
	}
	return false
}

// sendOne transmits the next retransmission or new data packet.
func (e *Endpoint) sendOne() {
	now := e.S.Now()
	var seq int64
	retx := false
	if len(e.lostQueue) > 0 {
		seq = e.popLost()
		retx = true
		e.RetxPackets++
		if seq < e.low {
			e.low = seq
		}
	} else {
		if e.nextSeq-e.base == int64(len(e.ring)) {
			e.growRing()
		}
		seq = e.nextSeq
		e.nextSeq++
		if e.Src != nil {
			e.Src.OnSend(now, pktSize)
		}
	}
	p := e.Tally.NewData(e.Flow, seq, pktSize, now)
	p.Retx = retx
	if st, ok := e.Alg.(DataStamper); ok {
		st.StampData(now, e, p)
	}
	*e.slot(seq) = sent{sentAt: now, size: pktSize, state: slotInflight, retx: retx}
	e.inflight++
	e.SentPackets++
	e.Out.Recv(p)
}

// paceNext sends one packet if allowed and re-arms at the pacing rate,
// from Start until Stop.
func (e *Endpoint) paceNext() {
	if e.stopped {
		return
	}
	now := e.S.Now()
	rate := 0.0
	if p, ok := e.Alg.(Pacer); ok {
		if r, use := p.PacingRate(now); use {
			rate = r
		}
	}
	if rate <= 0 {
		// No rate yet: poll shortly.
		e.armPace(5 * sim.Millisecond)
		return
	}
	gap := sim.FromSeconds(float64(pktSize*8) / rate)
	if gap < 10*sim.Microsecond {
		gap = 10 * sim.Microsecond
	}
	if e.canSend() {
		e.sendOne()
		e.armPace(gap)
	} else {
		// Window-limited or source-limited: retry soon.
		retry := gap
		if retry < sim.Millisecond {
			retry = sim.Millisecond
		}
		e.armPace(retry)
	}
	e.maybeComplete()
	e.armWake(now)
}

// armPace schedules the next paceNext d from now, unless the packet just
// sent stopped the endpoint on the spot (a zero-delay path completing
// the flow): nothing is pending for a stopped endpoint.
func (e *Endpoint) armPace(d sim.Time) {
	if !e.stopped {
		e.pace = e.S.AfterArgs(d, endpointPace, e, nil)
	}
}

// maybeComplete fires OnComplete once for finite sources.
func (e *Endpoint) maybeComplete() {
	if e.completeFired || e.OnComplete == nil {
		return
	}
	if e.sourceDone() && e.inflight == 0 && len(e.lostQueue) == 0 {
		e.completeFired = true
		e.OnComplete(e.S.Now())
	}
}

// Recv implements packet.Node for acknowledgements. The endpoint is the
// ACK's terminal consumer and releases it; algorithms must not retain
// info.Ack beyond OnAck.
func (e *Endpoint) Recv(p *packet.Packet) {
	if !p.IsAck || p.Flow != e.Flow {
		// Misrouted traffic: the endpoint is still the last holder.
		p.Drop(packet.Misrouted)
		return
	}
	if e.stopped {
		p.Drop(packet.Late)
		return
	}
	defer p.Release()
	now := e.S.Now()
	info := AckInfo{Ack: p}

	if s := e.acked(p.Seq); s != nil {
		info.AckedBytes = int(s.size)
		e.AckedPackets++
		e.AckedBytes += int64(s.size)
		if !p.Retx && !s.retx {
			info.RTT = now - p.AckSentAt
			info.RTTValid = true
			e.updateRTT(info.RTT)
		}
		if p.Seq > e.hiSacked {
			e.hiSacked = p.Seq
		}
		e.lastAckAt = now
		e.rtoBackoff = 0
	}
	if p.CumAck > e.cumAcked {
		e.cumAcked = p.CumAck
	}
	if p.EchoCE {
		e.CEEchoes++
	}

	e.detectLoss(now)

	info.Inflight = e.inflight
	e.Alg.OnAck(now, e, info)
	if e.rec.Enabled(obs.CatCC) {
		var bps int64
		if pr, ok := e.Alg.(Pacer); ok {
			if v, use := pr.PacingRate(now); use {
				bps = int64(v)
			}
		}
		e.rec.Emit(int64(now), obs.EvCwnd, e.obsSrc, int32(e.Flow), int64(e.Alg.CwndPkts()*1024), bps)
	}

	if p.EchoCE && p.Seq >= e.recoveryUntil {
		if h, ok := e.Alg.(CEHandler); !ok || !h.HandlesCE() {
			e.recoveryUntil = e.nextSeq
			e.Alg.OnCongestion(now, e)
		}
	}

	if !e.pacing {
		e.trySend()
	}
	e.maybeComplete()
	e.armWake(now)
}

// detectLoss declares packets below the reordering window lost.
func (e *Endpoint) detectLoss(now sim.Time) {
	lost := false
	for limit := e.hiSacked - reorderThresh; e.low <= limit; e.low++ {
		s := e.slot(e.low)
		if s.state != slotInflight {
			continue // acked, or already queued for retransmission
		}
		// A retransmission is already in flight for this sequence;
		// dup-ACK evidence predates it, so normally wait for its ACK.
		// But if the retransmission itself has been out for an RTO it
		// was lost too — without this check one dropped retransmission
		// would block loss detection (and congestion signals) forever.
		if s.retx && now-s.sentAt <= e.rto() {
			break
		}
		s.state = slotLost
		e.inflight--
		e.queueLost(e.low)
		e.LostPackets++
		lost = true
	}
	// One congestion event per window.
	if lost && e.hiSacked >= e.recoveryUntil {
		e.recoveryUntil = e.nextSeq
		e.Alg.OnCongestion(now, e)
	}
}

// updateRTT applies the standard SRTT/RTTVAR estimator (RFC 6298).
func (e *Endpoint) updateRTT(rtt sim.Time) {
	if rtt < e.minRTT {
		e.minRTT = rtt
	}
	if e.srtt == 0 {
		e.srtt = rtt
		e.rttvar = rtt / 2
		return
	}
	d := e.srtt - rtt
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.srtt = (7*e.srtt + rtt) / 8
}
