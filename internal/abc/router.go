// Package abc implements Accel-Brake Control, the paper's contribution:
// an explicit congestion-control protocol in which routers guide senders
// to a target rate using one bit of feedback per packet.
//
// The router side (this file) implements §3.1.2: the target-rate rule
// (Eq. 1), the accelerate fraction (Eq. 2) computed from the *dequeue*
// rate, and the deterministic token-bucket marking of Algorithm 1. The
// sender side (sender.go) implements §3.1.1/§3.1.3/§5.1.1.
package abc

import (
	"math/rand"

	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// FeedbackMode selects which rate estimate drives Eq. 2.
type FeedbackMode int

const (
	// DequeueRate is ABC's choice: f(t) = min(½·tr(t)/cr(t), 1) with
	// cr(t) the dequeue rate, exploiting ACK clocking to predict the
	// enqueue rate one RTT ahead (§3.1.2, Fig. 2a).
	DequeueRate FeedbackMode = iota
	// EnqueueRate is the ablation Fig. 2b: computing f(t) against the
	// enqueue rate like prior explicit schemes, which doubles p95 delay.
	EnqueueRate
)

// RouterConfig parameterizes an ABC router. The tagged fields are the
// ones a scenario file's qdisc clause sets.
type RouterConfig struct {
	// Eta is the target utilization η < 1 (paper: 0.98 in emulation).
	Eta float64
	// Delta is δ, the queue-draining time constant (paper: 133 ms for a
	// 100 ms propagation RTT, satisfying δ > 2τ/3 of Theorem 3.1).
	Delta sim.Time
	// DelayThreshold is dt, below which queuing delay is ignored; it
	// must exceed the link's inter-scheduling time (batching) so that
	// batch-induced delay does not read as congestion.
	DelayThreshold sim.Time `spec:"dt_ms"`
	// Window is T, the sliding window for dequeue/enqueue rate
	// measurement (paper: 40 ms on Wi-Fi; we default 50 ms).
	Window sim.Time
	// TokenLimit caps the token bucket of Algorithm 1.
	TokenLimit float64
	// Feedback selects dequeue- vs enqueue-rate feedback.
	Feedback FeedbackMode
	// LieFraction makes the router misbehave: after the honest token
	// bucket runs, each packet leaving with a brake is fraudulently
	// promoted back to accelerate with this probability. A lying router
	// violates ABC's only-demote invariant, so downstream honest routers
	// can still demote the forged mark — the lie is strongest when the
	// liar is the last ABC hop. Zero (the default) is an honest router.
	LieFraction float64 `spec:"lie"`
}

// The defaults NewRouter also gives a zero Window or TokenLimit.
const (
	defaultWindow     sim.Time = 50 * sim.Millisecond
	defaultTokenLimit float64  = 10
)

// DefaultRouterConfig returns the paper's emulation parameters.
func DefaultRouterConfig() RouterConfig {
	return RouterConfig{
		Eta:            0.98,
		Delta:          133 * sim.Millisecond,
		DelayThreshold: 20 * sim.Millisecond,
		Window:         defaultWindow,
		TokenLimit:     defaultTokenLimit,
	}
}

// withDefaults gives a zero Eta, Delta or DelayThreshold
// DefaultRouterConfig's value, as NewRouter does a zero Window and
// TokenLimit; the zeros of Feedback and LieFraction are meant.
func (c RouterConfig) withDefaults() RouterConfig {
	d := DefaultRouterConfig()
	if c.Eta == 0 {
		c.Eta = d.Eta
	}
	if c.Delta == 0 {
		c.Delta = d.Delta
	}
	if c.DelayThreshold == 0 {
		c.DelayThreshold = d.DelayThreshold
	}
	return c
}

// Router is the ABC qdisc: the shared droptail store (its Limit is the
// kind's buffer; NewRouter starts it at qdisc.DefaultBuffer) whose
// dequeue path computes per-packet accelerate/brake feedback. It
// implements qdisc.Qdisc and qdisc.CapacityAware.
type Router struct {
	Cfg RouterConfig
	qdisc.Queue
	qdisc.Capacity

	token    float64
	deqMeter qdisc.RateMeter
	// enqMeter is fed and read only under Feedback == EnqueueRate.
	enqMeter qdisc.RateMeter

	// AccelMarked / BrakeMarked count feedback decisions on data packets
	// for tests and the marking-fraction invariants.
	AccelMarked int64
	BrakeMarked int64
	// EchoAccelKept / EchoDemoted count Algorithm 1 decisions applied to
	// ACK-borne echoes: a router on the reverse path sees the echoed
	// accelerate in the ACK's ECN codepoint and may demote it, so a
	// congested uplink brakes the forward sender (min-of-marks over the
	// whole round trip).
	EchoAccelKept int64
	EchoDemoted   int64
	// LiePromoted counts brake marks the lying-router mode fraudulently
	// promoted to accelerate (zero on honest routers).
	LiePromoted int64

	// rng drives LieFraction draws; installed by the qdisc builder. The
	// draw happens only on brake-bound packets, so an honest router
	// (LieFraction 0) consumes nothing from the stream.
	rng *rand.Rand

	// bg is the fluid background aggregate coupled into this router's
	// link: its backlog counts toward x(t) and its service rate toward
	// the rate AccelFraction normalizes against.
	bg qdisc.Background

	// rec/obsSrc feed mark-issuance events to the flight recorder
	// (obs.Sink, wired through the owning link); nil rec = off.
	rec    *obs.Recorder
	obsSrc int32
}

// SetObs implements obs.Sink: every Algorithm-1 marking decision emits a
// CatMark event under the given source id (the owning edge).
func (r *Router) SetObs(rec *obs.Recorder, src int32) { r.rec, r.obsSrc = rec, src }

// Token returns the current Algorithm-1 token-bucket level (metrics).
func (r *Router) Token() float64 { return r.token }

// NewRouter returns an ABC router with the given configuration.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Eta <= 0 || cfg.Eta > 1 {
		panic("abc: Eta must be in (0, 1]")
	}
	if cfg.Delta <= 0 {
		panic("abc: Delta must be positive")
	}
	if cfg.Window <= 0 {
		cfg.Window = defaultWindow
	}
	if cfg.TokenLimit <= 0 {
		cfg.TokenLimit = defaultTokenLimit
	}
	return &Router{
		Cfg:      cfg,
		Queue:    qdisc.Queue{Limit: qdisc.DefaultBuffer},
		deqMeter: qdisc.RateMeter{Window: cfg.Window},
		enqMeter: qdisc.RateMeter{Window: cfg.Window},
	}
}

// SetBackground implements qdisc.BackgroundAware: the router accounts
// for the fluid aggregate as if its virtual packets were really in the
// queue, so accel/brake marks pace foreground flows against the total
// (packet + fluid) load.
func (r *Router) SetBackground(bg qdisc.Background) { r.bg = bg }

// Enqueue implements qdisc.Qdisc.
func (r *Router) Enqueue(now sim.Time, p *packet.Packet) bool {
	// The buffer is shared with the fluid backlog.
	if !r.Admit(now, p, qdisc.Slots(r.bg, now)) {
		return false
	}
	if r.Cfg.Feedback == EnqueueRate {
		r.enqMeter.Add(now, int(p.Size))
	}
	return true
}

// QueueDelay returns the router's current queuing-delay estimate
// x(t) = queued bytes / µ(t).
func (r *Router) QueueDelay(now sim.Time) sim.Time { return r.queueDelay(now, r.Mu(now)) }

// queueDelay is QueueDelay at the capacity mu = µ(now).
func (r *Router) queueDelay(now sim.Time, mu float64) sim.Time {
	queued := float64(r.Bytes())
	if r.bg != nil {
		queued += r.bg.QueueBytes(now)
	}
	if mu <= 0 {
		if queued > 0 {
			return r.Cfg.Delta // outage with a standing queue: saturate
		}
		return 0
	}
	return sim.FromSeconds(queued * 8 / mu)
}

// TargetRate computes tr(t) of Eq. 1 in bits/sec.
func (r *Router) TargetRate(now sim.Time) float64 { return r.targetRate(now, r.Mu(now)) }

// targetRate is TargetRate at the capacity mu = µ(now).
func (r *Router) targetRate(now sim.Time, mu float64) float64 {
	if mu <= 0 {
		return 0
	}
	x := r.queueDelay(now, mu)
	tr := r.Cfg.Eta * mu
	if excess := x - r.Cfg.DelayThreshold; excess > 0 {
		tr -= mu * excess.Seconds() / r.Cfg.Delta.Seconds()
	}
	if tr < 0 {
		tr = 0
	}
	return tr
}

// AccelFraction computes f(t) of Eq. 2 using the configured feedback mode.
// It reads µ(now) once, for Eq. 1's rate and queuing delay both.
func (r *Router) AccelFraction(now sim.Time) float64 {
	tr := r.targetRate(now, r.Mu(now))
	var ref float64
	switch r.Cfg.Feedback {
	case EnqueueRate:
		ref = r.enqMeter.BytesPerSec(now) * 8
	default:
		ref = r.deqMeter.BytesPerSec(now) * 8
	}
	if r.bg != nil {
		// The fluid aggregate's service is part of the total rate the
		// feedback normalizes against — with N real background flows
		// their packets would be in this meter.
		ref += r.bg.ServedBps(now)
	}
	if ref <= 0 {
		// No measured traffic in the window: fully open the link so an
		// idle flow can ramp (f = 1 doubles the window per RTT).
		if tr > 0 {
			return 1
		}
		return 0
	}
	f := 0.5 * tr / ref
	if f > 1 {
		f = 1
	}
	if f < 0 {
		f = 0
	}
	return f
}

// Dequeue implements qdisc.Qdisc, applying Algorithm 1 to each outgoing
// packet: the token bucket admits at most a fraction f(t) of accelerates,
// and marks may only be demoted (accel→brake), never promoted, so the
// fraction of accelerates equals the minimum f(t) along a multi-bottleneck
// path (§3.1.2). ACKs carrying an echoed accelerate in their ECN codepoint
// go through the same bucket, which extends the minimum over reverse-path
// bottlenecks hosting an ABC router.
func (r *Router) Dequeue(now sim.Time) *packet.Packet {
	p := r.Pop()
	if p == nil {
		return nil
	}
	r.deqMeter.Add(now, int(p.Size))

	// No token credit for the aggregate's virtual dequeues: with N real
	// background flows each of their packets would accrue f AND consume
	// a kept accelerate with probability f — net zero for the bucket the
	// foreground draws from. (Their service still enters AccelFraction's
	// denominator, which is where the background reduces f.)
	f := r.AccelFraction(now)
	r.token = minf(r.token+f, r.Cfg.TokenLimit)
	trace := r.rec.Enabled(obs.CatMark)
	if p.ECN == packet.Accel {
		if r.token > 1 {
			r.token--
			if p.IsAck {
				r.EchoAccelKept++
				if trace {
					r.rec.Emit(int64(now), obs.EvEchoKept, r.obsSrc, int32(p.Flow), 0, 0)
				}
			} else {
				r.AccelMarked++
				if trace {
					r.rec.Emit(int64(now), obs.EvAccel, r.obsSrc, int32(p.Flow), 0, 0)
				}
			}
		} else {
			p.ECN = packet.Brake
			if p.IsAck {
				r.EchoDemoted++
				if trace {
					r.rec.Emit(int64(now), obs.EvEchoDemoted, r.obsSrc, int32(p.Flow), 0, 0)
				}
			} else {
				r.BrakeMarked++
				if trace {
					r.rec.Emit(int64(now), obs.EvBrake, r.obsSrc, int32(p.Flow), 0, 0)
				}
			}
		}
	}
	// Lying-router mode: promote a fraction of brake-bound packets back
	// to accelerate, violating the only-demote invariant. Applied after
	// the honest bucket so the lie covers demotions and already-braked
	// arrivals alike.
	if r.Cfg.LieFraction > 0 && r.rng != nil && p.ECN == packet.Brake &&
		r.rng.Float64() < r.Cfg.LieFraction {
		p.ECN = packet.Accel
		r.LiePromoted++
		if trace {
			r.rec.Emit(int64(now), obs.EvLiePromoted, r.obsSrc, int32(p.Flow), 0, 0)
		}
	}
	return p
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
