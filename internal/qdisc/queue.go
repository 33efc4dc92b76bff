// The one packet store, and the two pieces of router plumbing (capacity
// provider, byte-rate meter) that every feedback router shares.
package qdisc

import (
	"abc/internal/packet"
	"abc/internal/sim"
)

// Stats counts events common to every discipline. DroppedPackets is
// refusals at Enqueue plus drops from inside the discipline, so over any
// run offered = EnqueuedPackets + refused and EnqueuedPackets =
// DequeuedPackets + dropped-inside + Len().
type Stats struct {
	EnqueuedPackets int64
	DroppedPackets  int64
	MarkedPackets   int64 // CE marks by AQM
	DequeuedPackets int64
	DequeuedBytes   int64
}

// Queue is the packet store behind every leaf discipline: a slice-backed
// FIFO with byte counting, the buffer limit and the counters. Disciplines
// embed it by value and keep only their decision; the methods below are
// the only code that admits, refuses, pops, CE-marks or drops a queued
// packet, which is what makes the Stats identities hold for all of them.
// It deliberately has no Set* method, so embedding it never makes a
// discipline CapacityAware, BackgroundAware or an obs.Sink.
type Queue struct {
	// Limit bounds the queue in packets; <= 0 means unlimited.
	Limit int
	Stats Stats

	pkts  []*packet.Packet
	head  int
	bytes int
}

// Len implements Qdisc.
func (q *Queue) Len() int { return len(q.pkts) - q.head }

// Bytes implements Qdisc.
func (q *Queue) Bytes() int { return q.bytes }

// Counters implements Qdisc.
func (q *Queue) Counters() Stats { return q.Stats }

// full reports whether the buffer has no room for another packet, with
// extra slots occupied by something other than queued packets (a fluid
// backlog sharing the buffer).
func (q *Queue) full(extra int) bool { return q.Limit > 0 && q.Len()+extra >= q.Limit }

// Admit appends p, stamping its enqueue time, unless the buffer is full;
// it reports whether p was accepted. A refused packet is counted and left
// untouched: the caller still owns it.
func (q *Queue) Admit(now sim.Time, p *packet.Packet, extra int) bool {
	if q.full(extra) {
		return q.Refuse()
	}
	p.EnqueuedAt = now
	q.pkts = append(q.pkts, p)
	q.bytes += int(p.Size)
	q.Stats.EnqueuedPackets++
	return true
}

// Refuse counts a packet the discipline turned away at Enqueue and
// returns false, Enqueue's verdict.
func (q *Queue) Refuse() bool {
	q.Stats.DroppedPackets++
	return false
}

// Pop removes the head packet and counts it as dequeued; nil when empty.
func (q *Queue) Pop() *packet.Packet { return q.deliver(q.take()) }

// take removes the head packet without counting it: the discipline must
// hand it to deliver or drop.
func (q *Queue) take() *packet.Packet {
	if q.head >= len(q.pkts) {
		return nil
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	q.bytes -= int(p.Size)
	// Compact once the dead prefix dominates, keeping amortized O(1).
	if q.head > 64 && q.head*2 >= len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	return p
}

// deliver counts a taken packet (nil for none) as dequeued.
func (q *Queue) deliver(p *packet.Packet) *packet.Packet {
	if p != nil {
		q.Stats.DequeuedPackets++
		q.Stats.DequeuedBytes += int64(p.Size)
	}
	return p
}

// drop counts a taken packet as dropped inside the discipline and ends
// it as packet.AQM: the queue owned it, and this is the one place such a
// packet goes back to the free list.
func (q *Queue) drop(p *packet.Packet) {
	q.Stats.DroppedPackets++
	p.Drop(packet.AQM)
}

// mark applies an AQM congestion signal to an ECN-capable packet.
func (q *Queue) mark(p *packet.Packet) {
	p.ECN = packet.CE
	q.Stats.MarkedPackets++
}

// Capacity holds the link's capacity estimate for the routers that are
// CapacityAware; embedding it is what makes a discipline so.
type Capacity struct {
	provider func(now sim.Time) float64
}

// SetCapacityProvider implements CapacityAware; the owning link installs
// its µ(t) estimate (trace rate, Wi-Fi estimator, or PK oracle).
func (c *Capacity) SetCapacityProvider(f func(now sim.Time) float64) { c.provider = f }

// Mu returns the current link-capacity estimate in bits/sec, 0 before a
// provider is installed.
func (c *Capacity) Mu(now sim.Time) float64 {
	if c.provider == nil {
		return 0
	}
	return c.provider(now)
}

// RateMeter measures a byte rate over a sliding time window.
type RateMeter struct {
	Window sim.Time

	times []sim.Time
	bytes []int
	sum   int64
	head  int
}

// Add records n bytes at time now.
func (m *RateMeter) Add(now sim.Time, n int) {
	m.times = append(m.times, now)
	m.bytes = append(m.bytes, n)
	m.sum += int64(n)
	m.prune(now)
}

func (m *RateMeter) prune(now sim.Time) {
	for m.head < len(m.times) && m.times[m.head] < now-m.Window {
		m.sum -= int64(m.bytes[m.head])
		m.head++
	}
	if m.head > 256 && m.head*2 >= len(m.times) {
		n := copy(m.times, m.times[m.head:])
		copy(m.bytes, m.bytes[m.head:])
		m.times = m.times[:n]
		m.bytes = m.bytes[:n]
		m.head = 0
	}
}

// BytesPerSec returns the windowed rate in bytes/sec.
func (m *RateMeter) BytesPerSec(now sim.Time) float64 {
	m.prune(now)
	return float64(m.sum) / m.Window.Seconds()
}
