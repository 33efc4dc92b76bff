// RED (Floyd & Jacobson 1993), included for completeness among the AQM
// baselines the paper cites (§2).
package qdisc

import (
	"math/rand"

	"abc/internal/packet"
	"abc/internal/sim"
)

// RED implements Random Early Detection with the classic gentle variant:
// the drop probability ramps from 0 at MinTh to MaxP at MaxTh, then to 1
// at 2*MaxTh, computed over an EWMA of the queue length.
type RED struct {
	// MinTh and MaxTh are the average-queue thresholds in packets.
	MinTh, MaxTh float64
	// MaxP is the drop probability at MaxTh.
	MaxP float64
	// Wq is the EWMA weight for the average queue length.
	Wq float64
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
	return &RED{
		MinTh:  float64(limit) * 0.2,
		MaxTh:  float64(limit) * 0.6,
		MaxP:   0.1,
		Wq:     0.002,
		UseECN: useECN,
		Queue:  Queue{Limit: limit},
		rng:    rng,
	}
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
			r.avg *= 1 - r.Wq
		}
		r.wasIdle = false
	}
	r.avg = (1-r.Wq)*r.avg + r.Wq*float64(r.Len())

	drop := false
	switch {
	case r.avg < r.MinTh:
		r.count = 0
	case r.avg < r.MaxTh:
		r.count++
		pb := r.MaxP * (r.avg - r.MinTh) / (r.MaxTh - r.MinTh)
		pa := pb / (1 - float64(r.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if r.rng.Float64() < pa {
			drop = true
			r.count = 0
		}
	case r.avg < 2*r.MaxTh: // gentle region
		r.count++
		pb := r.MaxP + (1-r.MaxP)*(r.avg-r.MaxTh)/r.MaxTh
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
