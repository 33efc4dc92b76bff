// Hybrid fluid/packet coupling: a background aggregate is a
// deterministic, fixed-step rate process standing in for N virtual flows
// at one bottleneck edge — a fixed offered rate λ(t), optionally ramped
// and gated by an on/off schedule. The Coupler integrates λ against the
// link's capacity and the packet backlog into a fluid queue, a service
// share and served-byte counters, and exposes those to the packet layer
// through qdisc.Background. Cost per simulated second is a handful of
// float ops per step regardless of N — a million background users is
// the same work as ten.
package fluid

import (
	"fmt"

	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// Aggregate kinds.
const (
	// KindConst offers a fixed aggregate rate (after the optional ramp).
	KindConst = "const"
	// KindOnOff gates the constant rate with a diurnal on/off square
	// schedule.
	KindOnOff = "onoff"
)

// AggregateKinds lists the valid Kind values (for validation messages).
func AggregateKinds() []string { return []string{KindConst, KindOnOff} }

// AggregateConfig parameterizes one background aggregate.
type AggregateConfig struct {
	// Kind selects the rate process: KindConst or KindOnOff.
	Kind string
	// Flows is N, the number of virtual flows in the ensemble. It is
	// descriptive: the rate process reads only RateBps.
	Flows int
	// RateBps is the aggregate offered rate.
	RateBps float64
	// OnFor/OffFor define the onoff square schedule (both required for
	// KindOnOff; the cycle starts in the on phase at Start).
	OnFor, OffFor sim.Time
	// Ramp linearly scales the offered rate from 0 over this window
	// after Start.
	Ramp sim.Time
	// Start/Stop bound the aggregate's activity; Stop 0 means the whole
	// run. The fluid backlog keeps draining after Stop.
	Start, Stop sim.Time
	// Step is the fixed coupling step (default 10 ms).
	Step sim.Time
}

// maxShare caps the service share an aggregate may take from the link in
// one step, guaranteeing residual foreground service.
const maxShare float64 = 0.95

// maxQueueBytes caps the fluid backlog, mirroring the bounded buffer
// real background packets would share.
const maxQueueBytes float64 = 250 * packet.MTU

// validate rejects configurations that would silently misbehave.
func (cfg AggregateConfig) validate() error {
	switch cfg.Kind {
	case KindConst, KindOnOff:
		if cfg.RateBps <= 0 {
			return fmt.Errorf("fluid: %s aggregate needs a positive rate, got %g bps", cfg.Kind, cfg.RateBps)
		}
		if cfg.Kind == KindOnOff && (cfg.OnFor <= 0 || cfg.OffFor <= 0) {
			return fmt.Errorf("fluid: onoff aggregate needs positive on/off durations")
		}
		if cfg.Kind == KindConst && (cfg.OnFor != 0 || cfg.OffFor != 0) {
			return fmt.Errorf("fluid: const aggregate does not take an on/off schedule")
		}
	default:
		return fmt.Errorf("fluid: unknown aggregate kind %q (valid: %v)", cfg.Kind, AggregateKinds())
	}
	if cfg.Ramp < 0 || cfg.Start < 0 || cfg.Stop < 0 {
		return fmt.Errorf("fluid: aggregate times must be non-negative")
	}
	if cfg.Stop > 0 && cfg.Stop <= cfg.Start {
		return fmt.Errorf("fluid: aggregate stop %v is not after start %v", cfg.Stop, cfg.Start)
	}
	return nil
}

// CouplerStats summarizes one aggregate's run for experiment results.
type CouplerStats struct {
	ArrivedBytes    float64
	ServedBytes     float64
	DroppedBytes    float64
	FinalQueueBytes float64
	// MeanShare is the time-averaged fraction of link service the
	// aggregate consumed over its steps.
	MeanShare float64
	Steps     int
}

// Coupler integrates an aggregate against one link: each step it turns
// the offered rate into fluid arrivals, splits the step's service bytes
// between the fluid backlog and the packet backlog in proportion to
// demand (FIFO sharing at step resolution), and updates the occupancy,
// share and served counters the packet layer reads. It implements
// qdisc.Background and steps on the graph's simulator like any other
// edge-local state.
type Coupler struct {
	cfg AggregateConfig

	capacity    func(now sim.Time) float64
	packetBytes func() int

	queue    float64 // fluid backlog, bytes
	share    float64 // service share taken in the last step
	lastBps  float64 // fluid service rate over the last step
	arrived  float64
	served   float64
	dropped  float64
	shareSum float64
	steps    int
}

// NewCoupler validates cfg (with defaults applied) and wires the
// aggregate to a link described by its capacity sampler (bits/sec) and
// packet-backlog reader (both required).
func NewCoupler(cfg AggregateConfig, capacity func(now sim.Time) float64, packetBytes func() int) (*Coupler, error) {
	if cfg.Step <= 0 {
		cfg.Step = 10 * sim.Millisecond
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if capacity == nil || packetBytes == nil {
		return nil, fmt.Errorf("fluid: coupler needs capacity and packet-backlog providers")
	}
	return &Coupler{cfg: cfg, capacity: capacity, packetBytes: packetBytes}, nil
}

// active reports whether now falls inside [Start, Stop).
func (c *Coupler) active(now sim.Time) bool {
	if now < c.cfg.Start {
		return false
	}
	return c.cfg.Stop == 0 || now < c.cfg.Stop
}

// ramp is the linear ramp-up factor in [0, 1] at time now.
func (c *Coupler) ramp(now sim.Time) float64 {
	if c.cfg.Ramp <= 0 {
		return 1
	}
	f := (now - c.cfg.Start).Seconds() / c.cfg.Ramp.Seconds()
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}

// arrivalBps is the offered rate λ(t) at now: the configured rate,
// ramped, inside the activity window and (for onoff) the on phase.
func (c *Coupler) arrivalBps(now sim.Time) float64 {
	if !c.active(now) {
		return 0
	}
	if c.cfg.Kind == KindOnOff && (now-c.cfg.Start)%(c.cfg.OnFor+c.cfg.OffFor) >= c.cfg.OnFor {
		return 0
	}
	return c.cfg.RateBps * c.ramp(now)
}

// Start arms the coupler's fixed-step timer on the edge's home
// simulator. Steps beyond until stop rescheduling.
func (c *Coupler) Start(s *sim.Simulator, until sim.Time) {
	s.At(c.cfg.Start, func() {
		s.Every(c.cfg.Step, func() bool {
			now := s.Now()
			if now > until {
				return false
			}
			c.step(now)
			return true
		})
	})
}

// step advances the coupling by one fixed interval ending at now.
func (c *Coupler) step(now sim.Time) {
	h := c.cfg.Step.Seconds()
	mu := c.capacity(now)
	if mu < 0 {
		mu = 0
	}
	qp := float64(c.packetBytes())
	arr := c.arrivalBps(now) * h / 8
	c.arrived += arr
	capBytes := mu * h / 8
	demand := c.queue + arr
	served, share := 0.0, 0.0
	if capBytes > 0 && demand > 0 {
		// FIFO sharing at step resolution: if everything fits, the
		// fluid drains fully; otherwise service splits in proportion to
		// backlog-plus-arrivals, capped so foreground packets always
		// retain residual service.
		if demand+qp <= capBytes {
			served = demand
		} else {
			served = capBytes * demand / (demand + qp)
		}
		if lim := maxShare * capBytes; served > lim {
			served = lim
		}
		share = served / capBytes
	}
	c.queue = demand - served
	if c.queue < 0 {
		c.queue = 0
	}
	if c.queue > maxQueueBytes {
		c.dropped += c.queue - maxQueueBytes
		c.queue = maxQueueBytes
	}
	c.served += served
	c.lastBps = served * 8 / h
	c.share = share
	c.shareSum += share
	c.steps++
}

// QueueBytes implements qdisc.Background.
func (c *Coupler) QueueBytes(sim.Time) float64 { return c.queue }

// Share implements qdisc.Background.
func (c *Coupler) Share(sim.Time) float64 { return c.share }

// ServedBps implements qdisc.Background.
func (c *Coupler) ServedBps(sim.Time) float64 { return c.lastBps }

// Stats returns the run summary.
func (c *Coupler) Stats() CouplerStats {
	st := CouplerStats{
		ArrivedBytes:    c.arrived,
		ServedBytes:     c.served,
		DroppedBytes:    c.dropped,
		FinalQueueBytes: c.queue,
		Steps:           c.steps,
	}
	if c.steps > 0 {
		st.MeanShare = c.shareSum / float64(c.steps)
	}
	return st
}

// Interface conformance.
var _ qdisc.Background = (*Coupler)(nil)
