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
	assess(p, &res)
	return res
}

// assess fills in the convergence fields from the sampled trajectory:
// oscillation amplitude over the last quarter, final distance to the
// fixed point, and the combined convergence verdict.
func assess(p Params, res *Result) {
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
}

// SimulateGrid integrates Eq. 13 for every grid point in one pass over
// the time axis. The per-point state lives in structure-of-arrays form —
// one packed delay-history backing slice, contiguous x/A vectors — so a
// (δ, τ) sweep walks a handful of flat slices instead of re-entering the
// scalar integrator per point. Each point performs exactly the floating-
// point operations Simulate performs in the same order, so the results
// are bit-identical to the scalar path (the property tests pin this).
func SimulateGrid(ps []Params, horizon sim.Time, step sim.Time) []Result {
	if step <= 0 {
		step = sim.Millisecond
	}
	h := step.Seconds()
	steps := int(horizon.Seconds()/h) + 1
	n := len(ps)
	res := make([]Result, n)
	if n == 0 {
		return res
	}
	// Pack every point's delay-history ring into one backing slice;
	// offs[g] is where point g's ring starts.
	offs := make([]int, n+1)
	delaySteps := make([]int, n)
	for g := range ps {
		d := int(ps[g].Tau / h)
		if d < 1 {
			d = 1
		}
		delaySteps[g] = d
		offs[g+1] = offs[g] + d
	}
	hist := make([]float64, offs[n])
	x := make([]float64, n)
	a := make([]float64, n)
	for g := range ps {
		for i := offs[g]; i < offs[g+1]; i++ {
			hist[i] = ps[g].X0
		}
		x[g] = ps[g].X0
		a[g] = ps[g].A()
	}
	sampleEvery := steps / 2000
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	for i := 0; i < steps; i++ {
		sample := i%sampleEvery == 0
		ts := float64(i) * h
		for g := range ps {
			slot := offs[g] + i%delaySteps[g]
			xd := hist[slot] // x(t−τ)
			excess := xd - ps[g].Dt
			if excess < 0 {
				excess = 0
			}
			dx := a[g] - excess/ps[g].Delta
			hist[slot] = x[g]
			xg := x[g] + dx*h
			if xg < 0 {
				xg = 0
			}
			x[g] = xg
			if sample {
				res[g].Times = append(res[g].Times, ts)
				res[g].X = append(res[g].X, xg)
			}
		}
	}
	for g := range ps {
		assess(ps[g], &res[g])
	}
	return res
}

// BoundaryPoint is one (δ/τ, converged) observation from a sweep.
type BoundaryPoint struct {
	DeltaOverTau float64
	Converged    bool
	PeakToPeak   float64
}

// SweepDelta integrates the model across a range of δ/τ ratios, exposing
// the stability boundary Theorem 3.1 places at 2/3. The whole sweep runs
// as one batched grid.
func SweepDelta(base Params, ratios []float64, horizon sim.Time) []BoundaryPoint {
	grid := make([]Params, len(ratios))
	for i, r := range ratios {
		grid[i] = base
		grid[i].Delta = r * base.Tau
	}
	rs := SimulateGrid(grid, horizon, sim.Millisecond)
	out := make([]BoundaryPoint, 0, len(ratios))
	for i, r := range ratios {
		out = append(out, BoundaryPoint{DeltaOverTau: r, Converged: rs[i].Converged, PeakToPeak: rs[i].PeakToPeak})
	}
	return out
}

// Boundary locates the empirical stability boundary as a δ/τ ratio: a
// coarse sweep over [0.3, 1.2] finds the first convergent ratio, and one
// refinement pass probes the interval below it. Both passes evaluate as
// a single batched grid each. ok is false when nothing converges (the
// horizon was too short or the parameters sit far outside the theorem's
// regime).
func Boundary(base Params, horizon sim.Time) (ratio float64, ok bool) {
	coarse := make([]float64, 0, 10)
	for r := 0.3; r <= 1.21; r += 0.1 {
		coarse = append(coarse, r)
	}
	pts := SweepDelta(base, coarse, horizon)
	first := -1
	for i, p := range pts {
		if p.Converged {
			first = i
			break
		}
	}
	if first < 0 {
		return 0, false
	}
	if first == 0 {
		return pts[0].DeltaOverTau, true
	}
	lo, hi := pts[first-1].DeltaOverTau, pts[first].DeltaOverTau
	fine := make([]float64, 0, 9)
	for k := 1; k < 10; k++ {
		fine = append(fine, lo+(hi-lo)*float64(k)/10)
	}
	for _, p := range SweepDelta(base, fine, horizon) {
		if p.Converged {
			return p.DeltaOverTau, true
		}
	}
	return hi, true
}
