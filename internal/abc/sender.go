// ABC sender: the window update of §3.1.1 with the additive-increase
// fairness term of §3.1.3 (Eq. 3), and the dual-window coexistence
// mechanism of §5.1.1, which every ABC sender runs so that it also
// backs off at non-ABC bottlenecks.
package abc

import (
	"abc/internal/cc"
	"abc/internal/packet"
	"abc/internal/sim"
)

// Sender implements cc.Algorithm and cc.DataStamper. Every outgoing data
// packet is marked accelerate (ECT(1)); receivers echo the (possibly
// demoted) mark back — both in the NS-bit echo and in the ACK's own ECN
// codepoint, so reverse-path routers can demote it again in flight — and
// the window moves per Eq. 3:
//
//	accel: w ← w + 1 + 1/w
//	brake: w ← w − 1 + 1/w
//
// The 1/w terms are the additive increase of one packet per RTT that makes
// the scheme MAIMD and hence fair (Chiu-Jain). For coexistence with
// non-ABC bottlenecks the sender also runs a full Cubic window driven by
// drops and ECN CE marks, transmits at min(wabc, wcubic), and caps both
// windows at twice the in-flight data so the idle window cannot balloon.
type Sender struct {
	// disableAI removes the additive-increase term: the unfair MIMD
	// variant of Fig. 3a, registered as scheme "ABC-MIMD".
	disableAI bool

	wabc  float64
	cubic cc.Cubic

	// Accels and Brakes count feedback received, for tests and reports.
	Accels int64
	Brakes int64
	// ReverseBrakes counts accelerates the receiver echoed but a
	// reverse-path router or marking qdisc demoted in flight (the ACK's
	// ECN codepoint no longer says Accel). They are a subset of Brakes.
	ReverseBrakes int64
}

// NewSender returns an ABC sender with the paper's initial window.
func NewSender() *Sender {
	return &Sender{wabc: 4, cubic: *cc.NewCubic()}
}

// WABC exposes the accel-brake window (Fig. 6 plots it).
func (s *Sender) WABC() float64 { return s.wabc }

// WCubic exposes the coexistence window (Fig. 6 plots it).
func (s *Sender) WCubic() float64 { return s.cubic.Cwnd() }

// StampData implements cc.DataStamper: ABC data packets leave marked
// accelerate and tagged as ABC traffic for dual-queue classification.
func (s *Sender) StampData(now sim.Time, e *cc.Endpoint, p *packet.Packet) {
	p.ECN = packet.Accel
	p.ABCFlow = true
}

// OnAck implements cc.Algorithm.
func (s *Sender) OnAck(now sim.Time, e *cc.Endpoint, info cc.AckInfo) {
	ack := info.Ack
	if ack.EchoValid && info.AckedBytes > 0 {
		ai := 1 / s.wabc
		if s.disableAI {
			ai = 0
		}
		// The effective signal is the minimum of the receiver's echo and
		// whatever survived the reverse path: an echoed accelerate whose
		// ACK was demoted to Brake (reverse ABC router) or CE (legacy
		// marking AQM) on a congested uplink counts as a brake, per the
		// multi-bottleneck minimum-of-marks rule applied to the full
		// round trip.
		accel := ack.EchoAccel
		if accel && ack.ECN != packet.Accel {
			accel = false
			s.ReverseBrakes++
		}
		if accel {
			s.wabc += 1 + ai
			s.Accels++
		} else {
			s.wabc += -1 + ai
			s.Brakes++
		}
		if s.wabc < 1 {
			s.wabc = 1
		}
	}
	// The Cubic window grows normally on ACKs; congestion signals reach
	// it via OnCongestion/OnRTO.
	s.cubic.OnAck(now, e, info)
	// Cap both windows to 2x in-flight (§5.1.1) so whichever window is
	// not the bottleneck cannot grow without bound.
	cap2 := 2 * float64(info.Inflight+1)
	if cap2 < 4 {
		cap2 = 4
	}
	if s.wabc > cap2 {
		s.wabc = cap2
	}
	if s.cubic.Cwnd() > cap2 {
		s.cubic.SetCwnd(cap2)
	}
}

// OnCongestion implements cc.Algorithm: drops and CE marks are non-ABC
// congestion signals and drive only the Cubic window.
func (s *Sender) OnCongestion(now sim.Time, e *cc.Endpoint) {
	s.cubic.OnCongestion(now, e)
}

// OnRTO implements cc.Algorithm: a timeout, like a drop, drives only the
// Cubic window.
func (s *Sender) OnRTO(now sim.Time, e *cc.Endpoint) {
	s.cubic.OnRTO(now, e)
}

// CwndPkts implements cc.Algorithm: send at the smaller window (§5.1.1).
func (s *Sender) CwndPkts() float64 {
	if c := s.cubic.Cwnd(); c < s.wabc {
		return c
	}
	return s.wabc
}
