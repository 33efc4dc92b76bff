// Hybrid fluid/packet coupling: a background aggregate is a
// deterministic, fixed-step rate process standing in for N virtual flows
// at one bottleneck edge. The Aggregate produces the ensemble's offered
// rate λ(t); the Coupler integrates it against the link's capacity and
// the packet backlog into a fluid queue, a service share and served-byte
// counters, and exposes those to the packet layer through
// qdisc.Background. Cost per simulated second is a handful of float ops
// per step regardless of N — a million background users is the same
// work as ten.
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
	// KindAIMD is a TCP-like AIMD ensemble driven by the Eq.-13
	// machinery: the offered rate follows λ(t) = µ·(1 + ẋ(t)) with
	// ẋ(t) = A − (x(t−τ) − dt)⁺/δ, A = (η−1) + N/(µ_pkts·τ), where the
	// delayed term is the queue delay actually observed at the coupled
	// link — the closed loop a real ensemble's ACK feedback would close.
	KindAIMD = "aimd"
	// KindOnOff gates the constant rate with a diurnal on/off square
	// schedule.
	KindOnOff = "onoff"
)

// AggregateKinds lists the valid Kind values (for validation messages).
func AggregateKinds() []string { return []string{KindConst, KindAIMD, KindOnOff} }

// AggregateConfig parameterizes one background aggregate.
type AggregateConfig struct {
	// Kind selects the rate process: KindConst, KindAIMD or KindOnOff.
	Kind string
	// Flows is N, the number of virtual flows in the ensemble. It enters
	// the AIMD drift term only (constant cost in N); for const/onoff it
	// is descriptive.
	Flows int
	// RateBps is the aggregate offered rate for const/onoff kinds.
	RateBps float64
	// OnFor/OffFor define the onoff square schedule (both required for
	// KindOnOff; the cycle starts in the on phase at Start).
	OnFor, OffFor sim.Time
	// Ramp linearly scales the offered rate from 0 over this window
	// after Start (const/onoff).
	Ramp sim.Time
	// Start/Stop bound the aggregate's activity; Stop 0 means the whole
	// run. The fluid backlog keeps draining after Stop.
	Start, Stop sim.Time
	// Step is the fixed coupling step (default 10 ms).
	Step sim.Time
	// RTT is τ, the ensemble round-trip delay for KindAIMD
	// (default 100 ms).
	RTT sim.Time
	// MaxQueueBytes caps the fluid backlog, mirroring the bounded
	// buffer real background packets would share (default 250 MTU).
	MaxQueueBytes float64
}

// The Eq.-13 constants of KindAIMD, the paper's emulation parameters: the
// target utilization η, the queue-draining time constant δ and the delay
// threshold dt.
const (
	aggEta   float64  = 0.98
	aggDelta sim.Time = 133 * sim.Millisecond
	aggDt    sim.Time = 20 * sim.Millisecond
)

// maxShare caps the service share an aggregate may take from the link in
// one step, guaranteeing residual foreground service.
const maxShare float64 = 0.95

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg AggregateConfig) withDefaults() AggregateConfig {
	if cfg.Step <= 0 {
		cfg.Step = 10 * sim.Millisecond
	}
	if cfg.RTT <= 0 {
		cfg.RTT = 100 * sim.Millisecond
	}
	if cfg.MaxQueueBytes <= 0 {
		cfg.MaxQueueBytes = 250 * packet.MTU
	}
	return cfg
}

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
	case KindAIMD:
		if cfg.Flows <= 0 {
			return fmt.Errorf("fluid: aimd aggregate needs a positive flow count, got %d", cfg.Flows)
		}
		if cfg.RateBps != 0 {
			return fmt.Errorf("fluid: aimd aggregate derives its rate from Eq. 13; rate must be unset")
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

// Aggregate is the deterministic rate process of one background
// ensemble: each fixed step it produces the offered rate λ(t) in
// bits/sec. AIMD state is the Eq.-13 integrator (Euler step plus a
// delay-history ring, exactly the Simulate machinery) fed with the
// observed queue delay.
type Aggregate struct {
	cfg  AggregateConfig
	hist []float64 // x(t−τ) ring for KindAIMD
	i    int
}

// NewAggregate validates cfg (with defaults applied) and returns the
// stepper.
func NewAggregate(cfg AggregateConfig) (*Aggregate, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := &Aggregate{cfg: cfg}
	if cfg.Kind == KindAIMD {
		d := int(cfg.RTT / cfg.Step)
		if d < 1 {
			d = 1
		}
		a.hist = make([]float64, d)
	}
	return a, nil
}

// Config returns the aggregate's effective (defaulted) configuration.
func (a *Aggregate) Config() AggregateConfig { return a.cfg }

// active reports whether now falls inside [Start, Stop).
func (a *Aggregate) active(now sim.Time) bool {
	if now < a.cfg.Start {
		return false
	}
	return a.cfg.Stop == 0 || now < a.cfg.Stop
}

// ramp is the linear ramp-up factor in [0, 1] at time now.
func (a *Aggregate) ramp(now sim.Time) float64 {
	if a.cfg.Ramp <= 0 {
		return 1
	}
	f := (now - a.cfg.Start).Seconds() / a.cfg.Ramp.Seconds()
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}

// ArrivalBps advances the process by one step and returns the offered
// rate λ(t). muBps is the link's current capacity and queueDelayS the
// total (packet + fluid) queue delay observed at the link — the AIMD
// ensemble's delayed feedback signal.
func (a *Aggregate) ArrivalBps(now sim.Time, muBps, queueDelayS float64) float64 {
	switch a.cfg.Kind {
	case KindConst:
		if !a.active(now) {
			return 0
		}
		return a.cfg.RateBps * a.ramp(now)
	case KindOnOff:
		if !a.active(now) {
			return 0
		}
		cycle := a.cfg.OnFor + a.cfg.OffFor
		if (now-a.cfg.Start)%cycle >= a.cfg.OnFor {
			return 0
		}
		return a.cfg.RateBps * a.ramp(now)
	default: // KindAIMD
		slot := a.i % len(a.hist)
		xd := a.hist[slot] // x(t−τ)
		a.hist[slot] = queueDelayS
		a.i++
		if !a.active(now) || muBps <= 0 {
			return 0
		}
		muPkts := muBps / 8 / packet.MTU
		drift := (aggEta - 1) + float64(a.cfg.Flows)/(muPkts*a.cfg.RTT.Seconds())
		excess := xd - aggDt.Seconds()
		if excess < 0 {
			excess = 0
		}
		dx := drift - excess/aggDelta.Seconds()
		lambda := muBps * (1 + dx)
		if lambda < 0 {
			lambda = 0
		}
		if lim := 2 * muBps; lambda > lim {
			lambda = lim
		}
		return lambda
	}
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

// Coupler integrates an Aggregate against one link: each step it turns
// the offered rate into fluid arrivals, splits the step's service bytes
// between the fluid backlog and the packet backlog in proportion to
// demand (FIFO sharing at step resolution), and updates the occupancy,
// share and served counters the packet layer reads. It implements
// qdisc.Background and is single-threaded on the edge's home simulator,
// so it composes with sharded execution like any other edge-local
// state.
type Coupler struct {
	agg *Aggregate
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

// NewCoupler wires an aggregate to a link described by its capacity
// sampler (bits/sec) and packet-backlog reader (both required).
func NewCoupler(cfg AggregateConfig, capacity func(now sim.Time) float64, packetBytes func() int) (*Coupler, error) {
	agg, err := NewAggregate(cfg)
	if err != nil {
		return nil, err
	}
	if capacity == nil || packetBytes == nil {
		return nil, fmt.Errorf("fluid: coupler needs capacity and packet-backlog providers")
	}
	return &Coupler{agg: agg, cfg: agg.Config(), capacity: capacity, packetBytes: packetBytes}, nil
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
	// Observed total queue delay at the link: the AIMD ensemble's
	// feedback signal. During an outage with standing backlog it
	// saturates at δ, matching the router's convention.
	obs := 0.0
	if mu > 0 {
		obs = (c.queue + qp) * 8 / mu
	} else if c.queue+qp > 0 {
		obs = aggDelta.Seconds()
	}
	arr := c.agg.ArrivalBps(now, mu, obs) * h / 8
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
	if c.queue > c.cfg.MaxQueueBytes {
		c.dropped += c.queue - c.cfg.MaxQueueBytes
		c.queue = c.cfg.MaxQueueBytes
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

// ServedBytes implements qdisc.Background.
func (c *Coupler) ServedBytes(sim.Time) float64 { return c.served }

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
