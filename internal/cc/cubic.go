// CUBIC (Ha, Rhee, Xu 2008; RFC 8312), the paper's primary loss-based
// baseline and the algorithm ABC's wnonabc window emulates (§5.1.1).
package cc

import (
	"math"

	"abc/internal/sim"
)

// RFC 8312's constants: the scaling constant C and the multiplicative
// decrease factor β.
const (
	cubicC    float64 = 0.4
	cubicBeta float64 = 0.7
)

// Cubic implements the CUBIC window growth function with fast convergence
// and the TCP-friendly (Reno-emulation) region.
type Cubic struct {
	cwnd       float64
	ssthresh   float64
	wMax       float64
	k          float64
	epochStart sim.Time
	wEst       float64 // Reno-friendly estimate
	ackCount   float64
}

// NewCubic returns a CUBIC sender with RFC 8312 constants.
func NewCubic() *Cubic {
	c := new(Cubic)
	c.Reset()
	return c
}

// Reset implements Algorithm.
func (c *Cubic) Reset() { *c = Cubic{cwnd: 4, ssthresh: 1e9} }

// OnAck implements Algorithm.
func (c *Cubic) OnAck(now sim.Time, e *Endpoint, info AckInfo) {
	if info.AckedBytes == 0 {
		return
	}
	if c.cwnd < c.ssthresh {
		c.cwnd++
		return
	}
	c.update(now, e.SRTT())
}

// update applies the cubic growth function once per ACK.
func (c *Cubic) update(now sim.Time, rtt sim.Time) {
	if c.epochStart == 0 {
		c.epochStart = now
		if c.cwnd < c.wMax {
			c.k = math.Cbrt((c.wMax - c.cwnd) / cubicC)
		} else {
			c.k = 0
			c.wMax = c.cwnd
		}
		c.wEst = c.cwnd
		c.ackCount = 0
	}
	t := (now - c.epochStart).Seconds() + rtt.Seconds()
	// d*d*d is math.Pow(d, 3) to the bit (TestCubeIsPow), without the
	// call.
	d := t - c.k
	target := cubicC*(d*d*d) + c.wMax

	// TCP-friendly region: emulate Reno's growth so CUBIC never does
	// worse than standard TCP at small BDPs.
	c.ackCount++
	c.wEst += 3 * (1 - cubicBeta) / (1 + cubicBeta) / c.cwnd
	if target < c.wEst {
		target = c.wEst
	}

	if target > c.cwnd {
		// Approach the target over one RTT.
		c.cwnd += (target - c.cwnd) / c.cwnd
	} else {
		c.cwnd += 0.01 / c.cwnd // tiny growth to probe
	}
}

// OnCongestion implements Algorithm.
func (c *Cubic) OnCongestion(now sim.Time, e *Endpoint) {
	c.epochStart = 0
	// Fast convergence: release bandwidth faster when the window is
	// still below the previous maximum.
	if c.cwnd < c.wMax {
		c.wMax = c.cwnd * (1 + cubicBeta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.cwnd *= cubicBeta
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	c.ssthresh = c.cwnd
}

// OnRTO implements Algorithm.
func (c *Cubic) OnRTO(now sim.Time, e *Endpoint) {
	c.epochStart = 0
	c.wMax = c.cwnd
	c.ssthresh = c.cwnd * cubicBeta
	if c.ssthresh < 2 {
		c.ssthresh = 2
	}
	c.cwnd = 1
}

// CwndPkts implements Algorithm.
func (c *Cubic) CwndPkts() float64 { return c.cwnd }

// Cwnd exposes the raw window for ABC's dual-window coupling.
func (c *Cubic) Cwnd() float64 { return c.cwnd }

// SetCwnd clamps the window (used by ABC's 2x-inflight cap, §5.1.1).
func (c *Cubic) SetCwnd(w float64) {
	if w < 1 {
		w = 1
	}
	c.cwnd = w
}
