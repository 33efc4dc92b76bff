// RCP (Rate Control Protocol): the router computes a single fair rate
// R(t) and stamps it into every packet; senders pace at the minimum
// stamped rate along the path. The paper (Appendix D, Fig. 17) shows RCP's
// rate-based control reacting more slowly than ABC's window-based control
// on varying links.
package explicit

import (
	"abc/internal/cc"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// rcpAlpha and rcpBeta are the rate-update gains; the paper uses the
// author-specified 0.5 and 0.25.
const (
	rcpAlpha float64 = 0.5
	rcpBeta  float64 = 0.25
)

// RCPRouter updates R once per control interval:
//
//	R ← R · (1 + (T/d)·(α·(C − y) − β·q/d) / C)
//
// and stamps min(R, header) into departing packets.
type RCPRouter struct {
	qdisc.Queue
	qdisc.Capacity

	rate          float64 // bytes/sec
	meanRTT       sim.Time
	intervalStart sim.Time
	arrivedBytes  int64
}

// NewRCPRouter returns an RCP router qdisc whose queue holds at most
// limit packets.
func NewRCPRouter(limit int) *RCPRouter {
	return &RCPRouter{Queue: qdisc.Queue{Limit: limit}, meanRTT: 100 * sim.Millisecond}
}

// Enqueue implements qdisc.Qdisc.
func (r *RCPRouter) Enqueue(now sim.Time, p *packet.Packet) bool {
	if !r.Admit(now, p, 0) {
		return false
	}
	if r.intervalStart == 0 {
		r.intervalStart = now
		r.rate = r.Mu(now) / 8 / 2 // start at half capacity
	}
	r.arrivedBytes += int64(p.Size)
	r.maybeUpdate(now)
	return true
}

// maybeUpdate runs the rate controller once per mean RTT.
func (r *RCPRouter) maybeUpdate(now sim.Time) {
	d := r.meanRTT
	T := now - r.intervalStart
	if T < d/2 { // RCP updates at least every d (use d/2 for agility)
		return
	}
	c := r.Mu(now) / 8
	if c <= 0 {
		r.intervalStart = now
		r.arrivedBytes = 0
		return
	}
	y := float64(r.arrivedBytes) / T.Seconds()
	q := float64(r.Bytes())
	adj := (T.Seconds() / d.Seconds()) *
		(rcpAlpha*(c-y) - rcpBeta*q/d.Seconds()) / c
	r.rate *= 1 + adj
	if r.rate < float64(packet.MTU) {
		r.rate = float64(packet.MTU) // at least one packet per second
	}
	if r.rate > 2*c {
		r.rate = 2 * c
	}
	r.intervalStart = now
	r.arrivedBytes = 0
}

// Dequeue implements qdisc.Qdisc.
func (r *RCPRouter) Dequeue(now sim.Time) *packet.Packet {
	p := r.Pop()
	if p == nil {
		return nil
	}
	rateBits := r.rate * 8
	if p.RCPRate == 0 || rateBits < p.RCPRate {
		p.RCPRate = rateBits
	}
	return p
}

// RCPSender paces at the router-stamped rate.
type RCPSender struct {
	rate float64 // bits/sec
}

// NewRCPSender returns an RCP sender with a conservative initial rate.
func NewRCPSender() *RCPSender {
	s := new(RCPSender)
	s.Reset()
	return s
}

// Reset implements cc.Algorithm.
func (s *RCPSender) Reset() { *s = RCPSender{rate: 1e6} }

// StampData implements cc.DataStamper: clear the rate field so routers
// along the path stamp their minimum.
func (s *RCPSender) StampData(now sim.Time, e *cc.Endpoint, p *packet.Packet) {
	p.RCPRate = 0
}

// OnAck implements cc.Algorithm. Only ACKs that acknowledge new data
// update the rate: a stale ACK (a duplicate, or one that drained late
// off an abandoned ACK path after a mid-run reroute) carries a rate the
// path it took stamped, and adopting it would let the old path's
// congestion state override what the current path is reporting.
func (s *RCPSender) OnAck(now sim.Time, e *cc.Endpoint, info cc.AckInfo) {
	if info.AckedBytes == 0 {
		return
	}
	if info.Ack.RCPRate > 0 {
		s.rate = info.Ack.RCPRate
	}
}

// OnCongestion implements cc.Algorithm.
func (s *RCPSender) OnCongestion(now sim.Time, e *cc.Endpoint) {}

// OnRTO implements cc.Algorithm.
func (s *RCPSender) OnRTO(now sim.Time, e *cc.Endpoint) { s.rate /= 2 }

// CwndPkts implements cc.Algorithm: a cap of two rate-RTT products keeps
// pathological queues bounded while pacing dominates.
func (s *RCPSender) CwndPkts() float64 {
	w := 2 * s.rate * 0.1 / 8 / packet.MTU
	if w < 4 {
		w = 4
	}
	return w
}

// PacingRate implements cc.Pacer.
func (s *RCPSender) PacingRate(now sim.Time) (float64, bool) { return s.rate, true }
