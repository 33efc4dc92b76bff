// VCP (Variable-structure Congestion Protocol, Xia et al. 2005): routers
// quantize their load factor into two ECN bits (low / high / overload) and
// senders switch between multiplicative increase, additive increase and
// multiplicative decrease. The paper (§7, Appendix D) notes VCP's
// coarse-grained feedback can take 12 RTTs to double the rate, versus one
// RTT for ABC.
package explicit

import (
	"abc/internal/cc"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// VCP load-factor codes carried in the packet's VCPLoad field.
const (
	vcpLow      = 1 // ρ < 80%: multiplicative increase
	vcpHigh     = 2 // 80% ≤ ρ < 100%: additive increase
	vcpOverload = 3 // ρ ≥ 100%: multiplicative decrease
)

// The VCP paper's parameters.
const (
	// vcpPeriod is tρ, the load-factor measurement interval.
	vcpPeriod sim.Time = 200 * sim.Millisecond
	// vcpKappaQ weights persistent queue into the load factor.
	vcpKappaQ float64 = 0.5
	// vcpGamma is the target utilization.
	vcpGamma float64 = 0.98
	// vcpAlpha, vcpBeta and vcpXi are the sender's AI, MD and MI
	// parameters.
	vcpAlpha float64 = 1.0
	vcpBeta  float64 = 0.875
	vcpXi    float64 = 0.0625
)

// VCPRouter measures its load factor each period and stamps the code into
// departing packets (codes only ever increase along the path).
type VCPRouter struct {
	qdisc.Queue
	qdisc.Capacity

	periodStart  sim.Time
	arrivedBytes int64
	code         uint8
}

// NewVCPRouter returns a VCP router qdisc whose queue holds at most limit
// packets.
func NewVCPRouter(limit int) *VCPRouter {
	return &VCPRouter{Queue: qdisc.Queue{Limit: limit}, code: vcpLow}
}

// Enqueue implements qdisc.Qdisc.
func (v *VCPRouter) Enqueue(now sim.Time, p *packet.Packet) bool {
	if !v.Admit(now, p, 0) {
		return false
	}
	if v.periodStart == 0 {
		v.periodStart = now
	}
	v.arrivedBytes += int64(p.Size)
	v.maybeUpdate(now)
	return true
}

// maybeUpdate recomputes the load factor once per period.
func (v *VCPRouter) maybeUpdate(now sim.Time) {
	T := now - v.periodStart
	if T < vcpPeriod {
		return
	}
	c := v.Mu(now) / 8 // bytes/sec
	if c <= 0 {
		v.code = vcpOverload
	} else {
		rho := (float64(v.arrivedBytes) + vcpKappaQ*float64(v.Bytes())) /
			(vcpGamma * c * T.Seconds())
		switch {
		case rho < 0.8:
			v.code = vcpLow
		case rho < 1.0:
			v.code = vcpHigh
		default:
			v.code = vcpOverload
		}
	}
	v.periodStart = now
	v.arrivedBytes = 0
}

// Dequeue implements qdisc.Qdisc.
func (v *VCPRouter) Dequeue(now sim.Time) *packet.Packet {
	p := v.Pop()
	if p == nil {
		return nil
	}
	if v.code > p.VCPLoad {
		p.VCPLoad = v.code
	}
	return p
}

// VCPSender applies MI/AI/MD per the received code with the VCP paper's
// parameters α=1.0, β=0.875, ξ=0.0625.
type VCPSender struct {
	cwnd    float64
	lastMD  sim.Time
	curCode uint8
}

// NewVCPSender returns a VCP sender with the paper's parameters.
func NewVCPSender() *VCPSender {
	s := new(VCPSender)
	s.Reset()
	return s
}

// Reset implements cc.Algorithm.
func (s *VCPSender) Reset() { *s = VCPSender{cwnd: 4, curCode: vcpLow} }

// StampData implements cc.DataStamper.
func (s *VCPSender) StampData(now sim.Time, e *cc.Endpoint, p *packet.Packet) {
	p.VCPLoad = 0
}

// OnAck implements cc.Algorithm: per-ACK scaled MI/AI, and MD at most
// once per load-factor period.
func (s *VCPSender) OnAck(now sim.Time, e *cc.Endpoint, info cc.AckInfo) {
	if info.AckedBytes == 0 {
		return
	}
	code := info.Ack.VCPLoad
	if code == 0 {
		code = s.curCode
	}
	s.curCode = code
	switch code {
	case vcpLow:
		// MI scaled per ACK: (1+ξ)^(1/w) per ACK ≈ (1+ξ) per RTT.
		s.cwnd *= 1 + vcpXi/s.cwnd
	case vcpHigh:
		s.cwnd += vcpAlpha / s.cwnd
	case vcpOverload:
		if now-s.lastMD >= vcpPeriod {
			s.cwnd *= vcpBeta
			s.lastMD = now
		}
	}
	if s.cwnd < 2 {
		s.cwnd = 2
	}
}

// OnCongestion implements cc.Algorithm.
func (s *VCPSender) OnCongestion(now sim.Time, e *cc.Endpoint) {
	s.cwnd *= vcpBeta
	if s.cwnd < 2 {
		s.cwnd = 2
	}
}

// OnRTO implements cc.Algorithm.
func (s *VCPSender) OnRTO(now sim.Time, e *cc.Endpoint) { s.cwnd = 2 }

// CwndPkts implements cc.Algorithm.
func (s *VCPSender) CwndPkts() float64 { return s.cwnd }
