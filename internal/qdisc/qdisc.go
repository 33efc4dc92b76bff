// Package qdisc implements the queueing disciplines used at simulated
// bottleneck links: the plain droptail FIFO the paper uses for its
// cellular-emulation buffers, and the drop-mode AQM baselines (CoDel, PIE)
// that the paper evaluates underneath Cubic.
//
// All disciplines are passive objects driven by the owning link: the link
// calls Enqueue when a packet arrives and Dequeue at each transmission
// opportunity. Time is supplied by the caller so disciplines stay free of
// any global clock and remain trivially testable.
//
// A discipline is a decision over one shared store. Queue (queue.go) is
// the FIFO ring, the buffer limit and the five Stats counters, and the
// only code that admits, refuses, pops or drops a queued packet;
// every leaf discipline here and in internal/abc and internal/explicit
// embeds it by value. A new discipline therefore writes what it decides —
// PIE's probability, CoDel's state machine, Algorithm 1 — in Enqueue and
// Dequeue around Admit/Refuse/Pop, registers a kind, and gets Len, Bytes,
// Counters, a row of the conformance table (conformance_test.go) and a
// BenchmarkQdiscChurn sub-benchmark for free (its 0 allocs/op ceiling is
// one line in bench_thresholds.txt); a router that needs µ(t) or a
// windowed rate embeds Capacity and holds a RateMeter. A composite
// (sched.DualQueue) owns no store and sums its children's counters.
package qdisc

import (
	"abc/internal/packet"
	"abc/internal/sim"
)

// Qdisc is a queueing discipline instance for one link.
type Qdisc interface {
	// Enqueue offers p to the queue at time now. It reports whether the
	// packet was accepted; rejected packets are dropped.
	Enqueue(now sim.Time, p *packet.Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil if
	// the queue is empty (or the discipline chose to drop everything).
	Dequeue(now sim.Time) *packet.Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int
	// Counters returns the discipline's packet accounting so far.
	Counters() Stats
}

// CapacityAware is implemented by disciplines that need the link's current
// capacity estimate (ABC, XCP, RCP, VCP routers). The link installs the
// provider before the simulation starts.
type CapacityAware interface {
	SetCapacityProvider(f func(now sim.Time) float64)
}

// Background is a fluid background aggregate coupled into a link's
// service loop (implemented by fluid.Coupler). The aggregate is a
// deterministic fixed-step rate process standing in for many virtual
// flows: it drains a share of the link's capacity and contributes queue
// occupancy, without any per-packet events. Links read Share, the ABC
// router QueueBytes and ServedBps, and Slots QueueBytes, all at packet
// granularity; the values advance only at the aggregate's own step
// instants, which is the coupling contract's time resolution.
type Background interface {
	// QueueBytes is the fluid backlog (bytes of virtual background
	// traffic queued at the link) at time now.
	QueueBytes(now sim.Time) float64
	// Share is the fraction of link service the aggregate consumed over
	// the current coupling step, in [0, 1). Links serve foreground
	// packets at the residual (1 − Share) of their capacity.
	Share(now sim.Time) float64
	// ServedBps is the aggregate's service rate over the last step in
	// bits/sec (part of the total dequeue rate a router measures).
	ServedBps(now sim.Time) float64
}

// BackgroundAware is implemented by links and disciplines whose service
// accounting can host a fluid background (netem links, the ABC router).
type BackgroundAware interface {
	SetBackground(bg Background)
}

// Slots is the number of buffer slots bg's fluid backlog occupies at now,
// counted in MTU-sized packets exactly as real background packets would
// be; 0 without a background.
func Slots(bg Background, now sim.Time) int {
	if bg == nil {
		return 0
	}
	return int(bg.QueueBytes(now) / packet.MTU)
}

// DropTail is a FIFO with a packet-count limit, the buffer model used for
// the paper's 250-packet cellular bottleneck buffers.
type DropTail struct {
	Queue
	bg Background
}

// NewDropTail returns a droptail queue bounded to limit packets.
func NewDropTail(limit int) *DropTail { return &DropTail{Queue: Queue{Limit: limit}} }

// SetBackground implements BackgroundAware: the buffer is shared, so
// fluid backlog occupies droptail slots.
func (d *DropTail) SetBackground(bg Background) { d.bg = bg }

// Enqueue implements Qdisc.
func (d *DropTail) Enqueue(now sim.Time, p *packet.Packet) bool {
	return d.Admit(now, p, Slots(d.bg, now))
}

// Dequeue implements Qdisc.
func (d *DropTail) Dequeue(now sim.Time) *packet.Packet { return d.Pop() }
