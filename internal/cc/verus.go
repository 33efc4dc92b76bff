// Verus (Zaki et al., SIGCOMM 2015), simplified: learn a delay-vs-window
// profile and chase a delay set-point with multiplicative corrections.
// The profile lags the channel on fast-varying links, producing the large
// rate oscillations and elevated delay the paper shows in Fig. 1b.
package cc

import "abc/internal/sim"

const (
	// verusR is the target ratio of RTT to minimum RTT (Verus' delay
	// set-point multiplier; the Verus paper sweeps 2-6).
	verusR float64 = 4
	// verusEpoch is the update epoch.
	verusEpoch sim.Time = 5 * sim.Millisecond
)

// Verus implements the simplified delay-profile controller.
type Verus struct {
	cwnd      float64
	lastEpoch sim.Time
	maxRTT    sim.Time
	epochRTT  sim.Time
	haveRTT   bool
	lossSeen  bool
}

// NewVerus returns a simplified Verus sender.
func NewVerus() *Verus {
	v := new(Verus)
	v.Reset()
	return v
}

// Reset implements Algorithm.
func (v *Verus) Reset() { *v = Verus{cwnd: 4} }

// OnAck implements Algorithm.
func (v *Verus) OnAck(now sim.Time, e *Endpoint, info AckInfo) {
	if info.RTTValid {
		v.epochRTT = info.RTT
		v.haveRTT = true
		if info.RTT > v.maxRTT {
			v.maxRTT = info.RTT
		}
	}
	if v.lastEpoch == 0 {
		v.lastEpoch = now
		return
	}
	if now-v.lastEpoch < verusEpoch || !v.haveRTT {
		return
	}
	v.lastEpoch = now
	base := e.MinRTT()
	if base <= 0 {
		return
	}
	target := sim.Time(float64(base) * verusR)
	if v.lossSeen {
		v.cwnd /= 2
		v.lossSeen = false
	} else if v.epochRTT > target {
		// Above the delay set-point: back off proportionally to the
		// overshoot (Verus walks down its delay profile).
		over := float64(v.epochRTT-target) / float64(target)
		v.cwnd *= 1 - 0.15*minF(over, 1)
	} else {
		// Below the set-point: climb. The climb is aggressive relative
		// to the epoch so the window oscillates on varying links, as
		// observed of Verus in the paper.
		v.cwnd += 1 + 2*float64(target-v.epochRTT)/float64(target)
	}
	if v.cwnd < 2 {
		v.cwnd = 2
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// OnCongestion implements Algorithm.
func (v *Verus) OnCongestion(now sim.Time, e *Endpoint) { v.lossSeen = true }

// OnRTO implements Algorithm.
func (v *Verus) OnRTO(now sim.Time, e *Endpoint) { v.cwnd = 2 }

// CwndPkts implements Algorithm.
func (v *Verus) CwndPkts() float64 { return v.cwnd }
