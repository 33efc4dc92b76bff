// CoDel per RFC 8289, the AQM the paper pairs with Cubic as its primary
// low-delay baseline (Cubic+Codel).
package qdisc

import (
	"math"

	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
)

// RFC 8289's values.
const (
	// codelTarget is the acceptable standing queue delay.
	codelTarget sim.Time = 5 * sim.Millisecond
	// codelInterval is the sliding-minimum window.
	codelInterval sim.Time = 100 * sim.Millisecond
)

// CoDel implements the Controlled Delay AQM. Packets whose queue sojourn
// exceeds codelTarget for at least codelInterval trigger the dropping
// state, in which packets are dropped (or CE-marked if ECN-capable) at
// intervals shrinking with the square root of the drop count, per the RFC
// 8289 control law. It is an obs.Sink: each dequeue-side drop emits an
// EvAQMDrop.
type CoDel struct {
	// UseECN marks ECN-capable packets instead of dropping them.
	UseECN bool

	// Queue is the store; overflow past its Limit is dropped at the tail.
	Queue

	firstAboveAt  sim.Time // when sojourn first went above target (0 = not above)
	dropping      bool
	dropNextAt    sim.Time
	dropCount     int
	lastDropCount int

	// rec/obsSrc feed the flight recorder; nil rec = off.
	rec    *obs.Recorder
	obsSrc int32
}

// SetObs implements obs.Sink.
func (c *CoDel) SetObs(rec *obs.Recorder, src int32) { c.rec, c.obsSrc = rec, src }

// aqmDrop traces a dequeue-side drop and hands the packet to the store's
// one drop point.
func (c *CoDel) aqmDrop(now sim.Time, p *packet.Packet) {
	if c.rec.Enabled(obs.CatPacket) {
		c.rec.Emit(int64(now), obs.EvAQMDrop, c.obsSrc, int32(p.Flow), 0, 0)
	}
	c.drop(p)
}

// NewCoDel returns a CoDel queue with RFC 8289 defaults and the given
// packet limit.
func NewCoDel(limit int, useECN bool) *CoDel {
	return &CoDel{UseECN: useECN, Queue: Queue{Limit: limit}}
}

// Enqueue implements Qdisc.
func (c *CoDel) Enqueue(now sim.Time, p *packet.Packet) bool { return c.Admit(now, p, 0) }

// controlLaw returns the next drop time after t for the current count.
func (c *CoDel) controlLaw(t sim.Time) sim.Time {
	return t + sim.Time(float64(codelInterval)/math.Sqrt(float64(c.dropCount)))
}

// doDequeue pops one packet and updates the "ok to drop" condition, per
// the RFC pseudocode.
func (c *CoDel) doDequeue(now sim.Time) (*packet.Packet, bool) {
	p := c.take()
	if p == nil {
		c.firstAboveAt = 0
		return nil, false
	}
	sojourn := now - p.EnqueuedAt
	if sojourn < codelTarget || c.Bytes() <= packet.MTU {
		c.firstAboveAt = 0
		return p, false
	}
	okToDrop := false
	if c.firstAboveAt == 0 {
		c.firstAboveAt = now + codelInterval
	} else if now >= c.firstAboveAt {
		okToDrop = true
	}
	return p, okToDrop
}

// Dequeue implements Qdisc, applying the CoDel state machine.
func (c *CoDel) Dequeue(now sim.Time) *packet.Packet {
	p, okToDrop := c.doDequeue(now)
	if p == nil {
		c.dropping = false
		return nil
	}
	if c.dropping {
		if !okToDrop {
			c.dropping = false
		} else {
			for now >= c.dropNextAt && c.dropping {
				if c.UseECN && p.ECN.ECNCapable() {
					// Marking suffices: signal and leave the
					// dropping schedule advanced.
					c.mark(p)
					c.dropCount++
					c.dropNextAt = c.controlLaw(c.dropNextAt)
					break
				}
				c.aqmDrop(now, p)
				c.dropCount++
				p, okToDrop = c.doDequeue(now)
				if p == nil {
					c.dropping = false
					break
				}
				if !okToDrop {
					c.dropping = false
				} else {
					c.dropNextAt = c.controlLaw(c.dropNextAt)
				}
			}
		}
	} else if okToDrop {
		// Enter dropping state with one signal.
		if c.UseECN && p.ECN.ECNCapable() {
			c.mark(p)
		} else {
			c.aqmDrop(now, p)
			p, _ = c.doDequeue(now)
		}
		c.dropping = true
		// Restart count near the previous steady-state rate if the last
		// dropping episode was recent (RFC 8289 §5.4).
		delta := c.dropCount - c.lastDropCount
		c.dropCount = 1
		if delta > 1 && now-c.dropNextAt < 16*codelInterval {
			c.dropCount = delta
		}
		c.dropNextAt = c.controlLaw(now)
		c.lastDropCount = c.dropCount
	}
	return c.deliver(p)
}
