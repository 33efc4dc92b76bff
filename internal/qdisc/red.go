// RED (Floyd & Jacobson 1993), included for completeness among the AQM
// baselines the paper cites (§2).
package qdisc

import (
	"math/rand"

	"abc/internal/packet"
	"abc/internal/sim"
)

// RED's conventional parameters.
const (
	// redMinThFrac and redMaxThFrac place the average-queue thresholds
	// minTh and maxTh at these fractions of the buffer limit.
	redMinThFrac float64 = 0.2
	redMaxThFrac float64 = 0.6
	// redMaxP is the drop probability at maxTh.
	redMaxP float64 = 0.1
	// redWq is the EWMA weight for the average queue length.
	redWq float64 = 0.002
)

// RED implements Random Early Detection with the classic gentle variant:
// the drop probability ramps from 0 at minTh to redMaxP at maxTh, then to
// 1 at 2*maxTh, computed over an EWMA of the queue length.
type RED struct {
	// UseECN marks instead of dropping where possible.
	UseECN bool

	// Queue is the store; its Limit bounds the instantaneous queue.
	Queue

	rng     *rand.Rand
	avg     float64
	count   int // packets since last mark/drop
	idleAt  sim.Time
	wasIdle bool
}

// NewRED returns a RED queue with conventional parameters scaled to the
// given buffer limit.
func NewRED(limit int, useECN bool, rng *rand.Rand) *RED {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &RED{UseECN: useECN, Queue: Queue{Limit: limit}, rng: rng}
}

// Enqueue implements Qdisc.
func (r *RED) Enqueue(now sim.Time, p *packet.Packet) bool {
	if r.full(0) {
		return r.Refuse()
	}
	// Update the average, decaying it for idle periods.
	if r.wasIdle {
		idle := (now - r.idleAt).Seconds()
		// Treat idle time as ~1500 pkt/s of virtual departures.
		m := idle * 1500
		for i := 0; i < int(m) && r.avg > 0; i++ {
			r.avg *= 1 - redWq
		}
		r.wasIdle = false
	}
	r.avg = (1-redWq)*r.avg + redWq*float64(r.Len())

	minTh, maxTh := float64(r.Limit)*redMinThFrac, float64(r.Limit)*redMaxThFrac
	drop := false
	switch {
	case r.avg < minTh:
		r.count = 0
	case r.avg < maxTh:
		r.count++
		pb := redMaxP * (r.avg - minTh) / (maxTh - minTh)
		pa := pb / (1 - float64(r.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if r.rng.Float64() < pa {
			drop = true
			r.count = 0
		}
	case r.avg < 2*maxTh: // gentle region
		r.count++
		pb := redMaxP + (1-redMaxP)*(r.avg-maxTh)/maxTh
		if r.rng.Float64() < pb {
			drop = true
			r.count = 0
		}
	default:
		drop = true
		r.count = 0
	}
	if drop {
		if !r.UseECN || !p.ECN.ECNCapable() {
			return r.Refuse()
		}
		r.mark(p)
	}
	return r.Admit(now, p, 0)
}

// Dequeue implements Qdisc.
func (r *RED) Dequeue(now sim.Time) *packet.Packet {
	p := r.Pop()
	if p == nil {
		if !r.wasIdle {
			r.wasIdle = true
			r.idleAt = now
		}
		return nil
	}
	if r.Len() == 0 {
		r.wasIdle = true
		r.idleAt = now
	}
	return p
}
