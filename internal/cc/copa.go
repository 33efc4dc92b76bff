// Copa (Arun & Balakrishnan, NSDI 2018), simplified to its default-mode
// control law: steer the sending rate towards 1/(δ·dq) where dq is the
// measured queuing delay, with velocity-based acceleration. Copa is one of
// the low-delay baselines that the paper shows underutilizes fast-varying
// links (Fig. 8, Fig. 9).
package cc

import "abc/internal/sim"

// copaDelta is δ, trading throughput for delay (0.5, the Copa paper's
// default mode).
const copaDelta float64 = 0.5

// Copa implements the simplified Copa controller.
type Copa struct {
	cwnd      float64
	velocity  float64
	dirUp     bool
	lastDir   sim.Time
	lastSS    sim.Time
	slowStart bool
}

// NewCopa returns a Copa sender in default mode.
func NewCopa() *Copa {
	c := new(Copa)
	c.Reset()
	return c
}

// Reset implements Algorithm.
func (c *Copa) Reset() { *c = Copa{cwnd: 4, velocity: 1, slowStart: true} }

// OnAck implements Algorithm.
func (c *Copa) OnAck(now sim.Time, e *Endpoint, info AckInfo) {
	if info.AckedBytes == 0 || !info.RTTValid {
		return
	}
	rtt := info.RTT
	base := e.MinRTT()
	dq := (rtt - base).Seconds() // standing queuing delay
	// Target rate λ = 1/(δ·dq); compare against the current rate
	// cwnd/RTT, both in packets/sec.
	curRate := c.cwnd / rtt.Seconds()
	var targetRate float64
	if dq <= 0 {
		targetRate = curRate * 2 // no queue observed: push up
	} else {
		targetRate = 1 / (copaDelta * dq)
	}

	if c.slowStart {
		// Copa's slow start doubles once per RTT while the current
		// rate remains below target.
		if targetRate > curRate {
			if now-c.lastSS >= rtt {
				c.cwnd *= 2
				c.lastSS = now
			}
		} else {
			c.slowStart = false
		}
		return
	}

	up := targetRate > curRate
	// Velocity doubles each RTT the direction is consistent, resets on
	// a direction change (Copa §2.2).
	if up != c.dirUp {
		// Any direction change resets velocity immediately; carrying a
		// large velocity across the flip would overshoot wildly.
		c.velocity = 1
		c.dirUp = up
		c.lastDir = now
	} else if rtt > 0 && now-c.lastDir >= rtt {
		// Velocity doubles each consistent RTT (Copa §2.2); the cap
		// only guards numeric overflow.
		c.velocity *= 2
		if c.velocity > 1<<20 {
			c.velocity = 1 << 20
		}
		c.lastDir = now
	}
	step := c.velocity / (copaDelta * c.cwnd)
	if up {
		c.cwnd += step
	} else {
		c.cwnd -= step
	}
	if c.cwnd < 2 {
		c.cwnd = 2
	}
}

// OnCongestion implements Algorithm. Copa's loss response halves δ's
// effect by halving the window once per window of data.
func (c *Copa) OnCongestion(now sim.Time, e *Endpoint) {
	c.slowStart = false
	c.cwnd /= 2
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	c.velocity = 1
}

// OnRTO implements Algorithm.
func (c *Copa) OnRTO(now sim.Time, e *Endpoint) {
	c.slowStart = false
	c.cwnd = 2
	c.velocity = 1
}

// CwndPkts implements Algorithm.
func (c *Copa) CwndPkts() float64 { return c.cwnd }
