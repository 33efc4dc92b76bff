// PIE per RFC 8033, the second AQM baseline (Cubic+PIE).
package qdisc

import (
	"math/rand"

	"abc/internal/packet"
	"abc/internal/sim"
)

// RFC 8033's values.
const (
	// pieTarget is the queue-delay reference.
	pieTarget sim.Time = 15 * sim.Millisecond
	// pieTUpdate is the probability-update period.
	pieTUpdate sim.Time = 15 * sim.Millisecond
	// pieAlpha and pieBeta are the PI controller gains.
	pieAlpha float64 = 0.125
	pieBeta  float64 = 1.25
	// pieMaxBurst is the burst allowance granted while the queue is idle.
	pieMaxBurst sim.Time = 150 * sim.Millisecond
)

// PIE implements the Proportional Integral controller Enhanced AQM. The
// drop probability is updated on a fixed period from the estimated queuing
// delay (queue bytes / measured departure rate) and applied on enqueue.
type PIE struct {
	// UseECN marks ECN-capable packets instead of dropping while the drop
	// probability is below 10% (RFC 8033 §5.1).
	UseECN bool

	// Queue is the store; its Limit bounds the queue in packets.
	Queue

	rng *rand.Rand

	dropProb     float64
	qdelayOld    sim.Time
	lastUpdate   sim.Time
	burstAllow   sim.Time
	departedB    int64    // bytes departed in current rate-measurement cycle
	measStart    sim.Time // start of rate measurement
	avgDrainRate float64  // bytes/sec
	inMeasure    bool
}

// NewPIE returns a PIE queue with RFC 8033 defaults.
func NewPIE(limit int, useECN bool, rng *rand.Rand) *PIE {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &PIE{UseECN: useECN, Queue: Queue{Limit: limit}, rng: rng, burstAllow: pieMaxBurst}
}

// qdelay estimates the current queuing delay from the departure rate.
func (pi *PIE) qdelay() sim.Time {
	if pi.avgDrainRate <= 0 {
		return 0
	}
	return sim.FromSeconds(float64(pi.Bytes()) / pi.avgDrainRate)
}

// update recomputes the drop probability; called lazily from Enqueue and
// Dequeue whenever pieTUpdate has elapsed, which keeps the discipline free
// of timers while remaining faithful to the RFC control law.
func (pi *PIE) update(now sim.Time) {
	for now-pi.lastUpdate >= pieTUpdate {
		pi.lastUpdate += pieTUpdate
		qd := pi.qdelay()
		p := pieAlpha*float64(qd-pieTarget)/float64(sim.Second) +
			pieBeta*float64(qd-pi.qdelayOld)/float64(sim.Second)
		// RFC 8033 auto-tuning: scale the adjustment with the current
		// probability so small probabilities move gently.
		switch {
		case pi.dropProb < 0.000001:
			p /= 2048
		case pi.dropProb < 0.00001:
			p /= 512
		case pi.dropProb < 0.0001:
			p /= 128
		case pi.dropProb < 0.001:
			p /= 32
		case pi.dropProb < 0.01:
			p /= 8
		case pi.dropProb < 0.1:
			p /= 2
		}
		pi.dropProb += p
		// Exponential decay when the queue is idle.
		if qd == 0 && pi.qdelayOld == 0 {
			pi.dropProb *= 0.98
		}
		if pi.dropProb < 0 {
			pi.dropProb = 0
		}
		if pi.dropProb > 1 {
			pi.dropProb = 1
		}
		pi.qdelayOld = qd
		if pi.dropProb == 0 && qd == 0 {
			pi.burstAllow = pieMaxBurst
		} else if pi.burstAllow > 0 {
			pi.burstAllow -= pieTUpdate
		}
	}
}

// Enqueue implements Qdisc.
func (pi *PIE) Enqueue(now sim.Time, p *packet.Packet) bool {
	if pi.lastUpdate == 0 {
		pi.lastUpdate = now
	}
	pi.update(now)
	if pi.full(0) {
		return pi.Refuse()
	}
	if pi.burstAllow <= 0 && pi.dropProb > 0 && pi.qdelay() > pieTarget/2 {
		if pi.rng.Float64() < pi.dropProb {
			if !pi.UseECN || pi.dropProb >= 0.1 || !p.ECN.ECNCapable() {
				return pi.Refuse()
			}
			pi.mark(p)
		}
	}
	return pi.Admit(now, p, 0)
}

// Dequeue implements Qdisc, also feeding the departure-rate estimator.
func (pi *PIE) Dequeue(now sim.Time) *packet.Packet {
	pi.update(now)
	p := pi.Pop()
	if p == nil {
		pi.inMeasure = false
		return nil
	}
	// Departure-rate measurement per RFC 8033 §4.3: measure while at
	// least a threshold of data is queued.
	const threshold = 10 * packet.MTU
	if pi.Bytes() >= threshold && !pi.inMeasure {
		pi.inMeasure = true
		pi.measStart = now
		pi.departedB = 0
	}
	if pi.inMeasure {
		pi.departedB += int64(p.Size)
		if dur := now - pi.measStart; dur >= 30*sim.Millisecond {
			rate := float64(pi.departedB) / dur.Seconds()
			if pi.avgDrainRate == 0 {
				pi.avgDrainRate = rate
			} else {
				pi.avgDrainRate = 0.9*pi.avgDrainRate + 0.1*rate
			}
			pi.inMeasure = false
		}
	}
	return p
}
