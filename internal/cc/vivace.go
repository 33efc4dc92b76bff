// PCC Vivace (Dong et al., NSDI 2018), simplified: rate-based online
// gradient ascent on the Vivace-latency utility over monitor intervals.
// On rapidly varying links the RTT-gradient term misfires and Vivace runs
// hot, matching the high-throughput/high-delay corner the paper reports
// for PCC (Fig. 8, Fig. 9).
package cc

import (
	"math"

	"abc/internal/packet"
	"abc/internal/sim"
)

// vivacePhase is one monitor interval's accounting.
type vivacePhase struct {
	rate      float64 // bits/sec tried
	start     sim.Time
	acked     float64 // bytes
	lost      float64 // packets
	rttFirst  sim.Time
	rttLast   sim.Time
	haveFirst bool
}

const (
	// vivaceExponent, vivaceLatCoeff and vivaceLossCoeff shape the
	// utility U = rate^exponent − latCoeff·rate·(dRTT/dt) −
	// lossCoeff·rate·loss.
	vivaceExponent  float64 = 0.9
	vivaceLatCoeff  float64 = 900
	vivaceLossCoeff float64 = 11.35
	// vivaceEpsilon is the probe amplitude.
	vivaceEpsilon float64 = 0.05
)

// Vivace implements simplified PCC Vivace-latency.
type Vivace struct {
	rate     float64 // current base rate, bits/sec
	probeHi  bool    // which direction this MI probes
	cur      vivacePhase
	prevUtil float64
	prevRate float64
	havePrev bool
	step     float64
}

// NewVivace returns a Vivace-latency sender.
func NewVivace() *Vivace {
	v := new(Vivace)
	v.Reset()
	return v
}

// Reset implements Algorithm.
func (v *Vivace) Reset() { *v = Vivace{rate: 2e6, step: 1} }

// utility evaluates the Vivace-latency utility for a finished interval.
func (v *Vivace) utility(ph *vivacePhase, dur sim.Time) float64 {
	if dur <= 0 {
		return 0
	}
	// Attribute the interval's rate, discounted by losses, rather than
	// the raw ACK arrival rate: ACKs for this interval's packets land an
	// RTT later, and judging the probe by stale arrivals zeroes the
	// gradient. (Vivace aligns monitor intervals with RTT for the same
	// reason.)
	mbps := ph.rate / 1e6
	if achieved := ph.acked * 8 / dur.Seconds() / 1e6; achieved > 0 && achieved < mbps/2 {
		// Persistently starved interval: trust the measurement.
		mbps = achieved
	}
	lossRate := 0.0
	sentPkts := ph.acked/packet.MTU + ph.lost
	if sentPkts > 0 {
		lossRate = ph.lost / sentPkts
	}
	rttGrad := 0.0
	if ph.haveFirst && ph.rttLast > 0 && dur > 0 {
		rttGrad = (ph.rttLast - ph.rttFirst).Seconds() / dur.Seconds()
	}
	if rttGrad < 0 {
		rttGrad = 0
	}
	return math.Pow(mbps, vivaceExponent) - vivaceLatCoeff*mbps*rttGrad/1000 - vivaceLossCoeff*mbps*lossRate
}

// OnAck implements Algorithm.
func (v *Vivace) OnAck(now sim.Time, e *Endpoint, info AckInfo) {
	if v.cur.start == 0 {
		v.startPhase(now)
	}
	v.cur.acked += float64(info.AckedBytes)
	if info.RTTValid {
		if !v.cur.haveFirst {
			v.cur.rttFirst = info.RTT
			v.cur.haveFirst = true
		}
		v.cur.rttLast = info.RTT
	}
	// Close the monitor interval after ~1 RTT (min 10 ms).
	mi := e.SRTT()
	if mi < 10*sim.Millisecond {
		mi = 10 * sim.Millisecond
	}
	if now-v.cur.start >= mi {
		v.closePhase(now)
	}
}

// startPhase begins a monitor interval at the probed rate.
func (v *Vivace) startPhase(now sim.Time) {
	v.cur = vivacePhase{start: now}
	if v.probeHi {
		v.cur.rate = v.rate * (1 + vivaceEpsilon)
	} else {
		v.cur.rate = v.rate * (1 - vivaceEpsilon)
	}
}

// closePhase evaluates utility and takes a gradient step every two MIs.
func (v *Vivace) closePhase(now sim.Time) {
	util := v.utility(&v.cur, now-v.cur.start)
	if v.havePrev {
		// Gradient over the two probed rates.
		dRate := (v.cur.rate - v.prevRate) / 1e6
		if dRate != 0 {
			grad := (util - v.prevUtil) / dRate
			delta := v.step * grad * 1e6 * 0.05
			max := v.rate * 0.3
			if delta > max {
				delta = max
			}
			if delta < -max {
				delta = -max
			}
			v.rate += delta
			if v.rate < 0.2e6 {
				v.rate = 0.2e6
			}
			// Confidence amplification on consistent direction.
			if (grad > 0) == v.probeHi {
				v.step *= 1.2
				if v.step > 8 {
					v.step = 8
				}
			} else {
				v.step = 1
			}
		}
		v.havePrev = false
	} else {
		v.prevUtil = util
		v.prevRate = v.cur.rate
		v.havePrev = true
	}
	v.probeHi = !v.probeHi
	v.startPhase(now)
}

// OnCongestion implements Algorithm. Loss enters the utility, not a
// window backoff.
func (v *Vivace) OnCongestion(now sim.Time, e *Endpoint) { v.cur.lost++ }

// OnRTO implements Algorithm.
func (v *Vivace) OnRTO(now sim.Time, e *Endpoint) {
	v.rate /= 2
	if v.rate < 0.2e6 {
		v.rate = 0.2e6
	}
}

// CwndPkts implements Algorithm: a generous cap so pacing dominates.
func (v *Vivace) CwndPkts() float64 {
	// Allow up to ~2x the rate's worth of data over a 200 ms horizon.
	return math.Max(8, v.rate*0.4/8/packet.MTU)
}

// PacingRate implements Pacer.
func (v *Vivace) PacingRate(now sim.Time) (float64, bool) {
	if v.cur.rate > 0 {
		return v.cur.rate, true
	}
	return v.rate, true
}
