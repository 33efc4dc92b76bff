// TCP Vegas (Brakmo & Peterson 1994), the delay-based baseline in the
// paper's Wi-Fi comparison (Fig. 10).
package cc

import "abc/internal/sim"

const (
	// vegasAlpha and vegasBeta are the queue-occupancy bounds in packets
	// (conventional values 2 and 4).
	vegasAlpha, vegasBeta float64 = 2, 4
	// vegasGamma bounds slow-start's queue build-up.
	vegasGamma float64 = 1
)

// Vegas keeps between vegasAlpha and vegasBeta packets queued at the
// bottleneck, estimated from the gap between expected and actual
// throughput.
type Vegas struct {
	cwnd      float64
	ssthresh  float64
	slowStart bool
	lastAdj   sim.Time
}

// NewVegas returns a Vegas sender with conventional parameters.
func NewVegas() *Vegas {
	v := new(Vegas)
	v.Reset()
	return v
}

// Reset implements Algorithm.
func (v *Vegas) Reset() { *v = Vegas{cwnd: 4, ssthresh: 1e9, slowStart: true} }

// OnAck implements Algorithm.
func (v *Vegas) OnAck(now sim.Time, e *Endpoint, info AckInfo) {
	if info.AckedBytes == 0 || !info.RTTValid {
		return
	}
	base := e.MinRTT()
	rtt := info.RTT
	if base == 0 || rtt == 0 {
		return
	}
	// diff = (expected - actual) * baseRTT, in packets queued.
	diff := v.cwnd * float64(rtt-base) / float64(rtt)

	if v.slowStart {
		if diff > vegasGamma {
			v.slowStart = false
			v.cwnd -= diff / 2
			if v.cwnd < 2 {
				v.cwnd = 2
			}
		} else if now-v.lastAdj >= rtt {
			// Vegas slow start doubles every other RTT.
			v.cwnd *= 2
			v.lastAdj = now
		}
		return
	}
	// Congestion avoidance: adjust once per RTT.
	if now-v.lastAdj < rtt {
		return
	}
	v.lastAdj = now
	switch {
	case diff < vegasAlpha:
		v.cwnd++
	case diff > vegasBeta:
		v.cwnd--
	}
	if v.cwnd < 2 {
		v.cwnd = 2
	}
}

// OnCongestion implements Algorithm.
func (v *Vegas) OnCongestion(now sim.Time, e *Endpoint) {
	v.slowStart = false
	v.cwnd *= 0.75
	if v.cwnd < 2 {
		v.cwnd = 2
	}
}

// OnRTO implements Algorithm.
func (v *Vegas) OnRTO(now sim.Time, e *Endpoint) {
	v.slowStart = false
	v.cwnd = 2
}

// CwndPkts implements Algorithm.
func (v *Vegas) CwndPkts() float64 { return v.cwnd }
