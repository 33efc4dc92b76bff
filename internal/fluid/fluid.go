// Package fluid implements the fluid model of the ABC control loop from
// Appendix A and numerically validates Theorem 3.1: with N flows, round-
// trip propagation delay τ and additive increase of one packet every l
// seconds, the queuing delay obeys the delay-differential equation
//
//	ẋ(t) = A − (1/δ)·(x(t−τ) − dt)⁺,   A = (η−1) + N/(µ·l)
//
// (Eq. 13, with µ in packets/sec), which is globally asymptotically stable
// when A > 0 iff δ > (2/3)·τ (via Yorke's condition). The integrator here
// lets tests and benches sweep (δ, τ) and observe the stability boundary.
// The hybrid backgrounds of aggregate.go are open-loop rate processes and
// do not integrate it.
package fluid

import (
	"math"

	"abc/internal/sim"
)

// Params configures the fluid model.
type Params struct {
	// Eta is the target utilization η.
	Eta float64
	// Delta is δ in seconds.
	Delta float64
	// Dt is the delay threshold dt in seconds.
	Dt float64
	// Tau is the round-trip propagation delay τ in seconds.
	Tau float64
	// N is the number of flows.
	N float64
	// MuPkts is the link capacity in packets/sec.
	MuPkts float64
	// L is the additive-increase period l in seconds (1 window increase
	// per RTT means l ≈ τ).
	L float64
	// X0 is the initial queuing delay in seconds.
	X0 float64
}

// DefaultParams puts the model in the interesting regime of Theorem 3.1:
// A > 0 (additive increase outweighs the η headroom), where stability
// genuinely requires δ > (2/3)τ. Ten flows on a ~5 Mbit/s link with the
// paper's η=0.98, dt=20 ms and τ=100 ms give A ≈ +0.22.
func DefaultParams() Params {
	return Params{
		Eta:    0.98,
		Delta:  0.133,
		Dt:     0.020,
		Tau:    0.100,
		N:      10,
		MuPkts: 5e6 / 8 / 1500,
		L:      0.100,
		X0:     0.200,
	}
}

// A returns the drift constant A of Eq. 13.
func (p Params) A() float64 { return (p.Eta - 1) + p.N/(p.MuPkts*p.L) }

// FixedPoint returns the predicted equilibrium queuing delay x*: 0 when
// A < 0, and A·δ + dt when A ≥ 0 (Appendix A, case 2).
func (p Params) FixedPoint() float64 {
	a := p.A()
	if a < 0 {
		return 0
	}
	return a*p.Delta + p.Dt
}

// StableByTheorem reports Theorem 3.1's criterion δ > (2/3)·τ. When
// A < 0 the system is stable for every δ (Appendix A, case 1).
func (p Params) StableByTheorem() bool {
	if p.A() < 0 {
		return true
	}
	return p.Delta > 2.0/3.0*p.Tau
}

// Result summarizes one integration.
type Result struct {
	// X is the sampled queuing-delay trajectory (seconds).
	X []float64
	// Times are the sample instants (seconds).
	Times []float64
	// Converged reports whether x(t) settled to the fixed point.
	Converged bool
	// FinalError is |x(T) − x*| at the end of the run.
	FinalError float64
	// PeakToPeak is the oscillation amplitude over the last quarter of
	// the run.
	PeakToPeak float64
}

// Simulate integrates Eq. 13 with forward Euler and a delay-history ring
// buffer for the given horizon.
func Simulate(p Params, horizon sim.Time, step sim.Time) Result {
	if step <= 0 {
		step = sim.Millisecond
	}
	h := step.Seconds()
	steps := int(horizon.Seconds()/h) + 1
	delaySteps := int(p.Tau / h)
	if delaySteps < 1 {
		delaySteps = 1
	}
	// History ring: x(t−τ) for the first τ seconds is the initial
	// condition (constant history).
	hist := make([]float64, delaySteps)
	for i := range hist {
		hist[i] = p.X0
	}
	a := p.A()
	x := p.X0
	res := Result{}
	sampleEvery := steps / 2000
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	for i := 0; i < steps; i++ {
		xd := hist[i%delaySteps] // x(t−τ)
		excess := xd - p.Dt
		if excess < 0 {
			excess = 0
		}
		dx := a - excess/p.Delta
		hist[i%delaySteps] = x
		x += dx * h
		if x < 0 {
			x = 0
		}
		if i%sampleEvery == 0 {
			res.Times = append(res.Times, float64(i)*h)
			res.X = append(res.X, x)
		}
	}
	// Oscillation amplitude over the last quarter, final distance to the
	// fixed point, and the combined convergence verdict.
	target := p.FixedPoint()
	q := len(res.X) * 3 / 4
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range res.X[q:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	res.PeakToPeak = hi - lo
	res.FinalError = math.Abs(res.X[len(res.X)-1] - target)
	// Converged: the trajectory's tail hugs the fixed point with small
	// residual oscillation relative to the initial displacement.
	scale := math.Abs(p.X0-target) + 1e-6
	res.Converged = res.FinalError < 0.05*scale+1e-4 && res.PeakToPeak < 0.1*scale+2e-4
	return res
}

// BoundaryPoint is one (δ/τ, converged) observation from a sweep.
type BoundaryPoint struct {
	DeltaOverTau float64
	Converged    bool
	PeakToPeak   float64
}

// SweepDelta integrates the model across a range of δ/τ ratios, exposing
// the stability boundary Theorem 3.1 places at 2/3.
func SweepDelta(base Params, ratios []float64, horizon sim.Time) []BoundaryPoint {
	out := make([]BoundaryPoint, 0, len(ratios))
	for _, r := range ratios {
		p := base
		p.Delta = r * base.Tau
		res := Simulate(p, horizon, sim.Millisecond)
		out = append(out, BoundaryPoint{DeltaOverTau: r, Converged: res.Converged, PeakToPeak: res.PeakToPeak})
	}
	return out
}
