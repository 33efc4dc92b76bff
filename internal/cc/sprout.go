// Sprout (Winstein, Sivaraman, Balakrishnan, NSDI 2013), simplified: a
// conservative forecast of link throughput caps how much data may be in
// flight so that queuing delay stays under a target with high probability.
// The paper finds Sprout too conservative on its traces (utilization 0.55
// of ABC's); this model keeps that character.
package cc

import (
	"math"

	"abc/internal/packet"
	"abc/internal/sim"
)

const (
	// sproutTargetDelay is the queuing-delay budget (Sprout uses 100 ms).
	sproutTargetDelay sim.Time = 100 * sim.Millisecond
	// sproutConservatism is how many standard deviations below the mean
	// the forecast sits (Sprout's 5th-percentile forecast ≈ 1.64σ).
	sproutConservatism float64 = 1.64
)

// Sprout implements the simplified forecast controller.
type Sprout struct {
	// Delivery-rate statistics over a short horizon.
	ewmaRate float64 // bytes/sec
	ewmaVar  float64
	lastAck  sim.Time
	ackedAcc float64

	srtt, minRTT sim.Time
	cwnd         float64
}

// NewSprout returns a simplified Sprout sender.
func NewSprout() *Sprout {
	s := new(Sprout)
	s.Reset()
	return s
}

// Reset implements Algorithm.
func (s *Sprout) Reset() { *s = Sprout{cwnd: 4} }

// OnAck implements Algorithm.
func (s *Sprout) OnAck(now sim.Time, e *Endpoint, info AckInfo) {
	if info.AckedBytes == 0 {
		return
	}
	s.srtt, s.minRTT = e.SRTT(), e.MinRTT()
	s.ackedAcc += float64(info.AckedBytes)
	if s.lastAck == 0 {
		s.lastAck = now
		return
	}
	// Update rate statistics every 20 ms tick (Sprout's tick).
	const tick = 20 * sim.Millisecond
	if now-s.lastAck < tick {
		return
	}
	rate := s.ackedAcc / (now - s.lastAck).Seconds()
	s.ackedAcc = 0
	s.lastAck = now
	if s.ewmaRate == 0 {
		s.ewmaRate = rate
	}
	dev := rate - s.ewmaRate
	s.ewmaRate += 0.2 * dev
	s.ewmaVar = 0.8*s.ewmaVar + 0.2*dev*dev

	// While the path shows little queuing we are the limiter, not the
	// link: the delivery-rate statistics then reflect our own window,
	// so probe upward instead of trusting the forecast (real Sprout's
	// Bayesian model serves the same purpose by keeping probability
	// mass above the observed rate when the queue is empty).
	if s.srtt > 0 && s.minRTT > 0 && s.srtt < s.minRTT+sproutTargetDelay/2 {
		s.cwnd += 2
		return
	}
	// Forecast: the conservative rate sustained for the delay budget;
	// floored at half the mean so one variance spike cannot zero it.
	forecast := s.ewmaRate - sproutConservatism*math.Sqrt(s.ewmaVar)
	if floor := 0.5 * s.ewmaRate; forecast < floor {
		forecast = floor
	}
	s.cwnd = forecast * sproutTargetDelay.Seconds() / packet.MTU
	if s.cwnd < 2 {
		s.cwnd = 2
	}
}

// OnCongestion implements Algorithm.
func (s *Sprout) OnCongestion(now sim.Time, e *Endpoint) {
	s.cwnd /= 2
	if s.cwnd < 2 {
		s.cwnd = 2
	}
}

// OnRTO implements Algorithm.
func (s *Sprout) OnRTO(now sim.Time, e *Endpoint) { s.cwnd = 2 }

// CwndPkts implements Algorithm.
func (s *Sprout) CwndPkts() float64 { return s.cwnd }
