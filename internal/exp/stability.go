// Theorem 3.1 validation: sweep the fluid model's δ/τ ratio and locate
// the stability boundary, which the theorem places at 2/3 when the drift
// constant A is positive; then check in the packet simulator that the
// queuing delay settles at Eq. 13's fixed point.
package exp

import (
	"fmt"
	"io"

	"abc/internal/abc"
	"abc/internal/fluid"
	"abc/internal/sim"
)

// StabilityResult summarizes the sweep and the packet check.
type StabilityResult struct {
	Points []fluid.BoundaryPoint
	// Boundary is the smallest swept ratio that converged.
	Boundary float64
	// Eq13 is the packet simulator's Eq. 13 cell.
	Eq13 Eq13Cell
}

// Eq13Cell is 20 backlogged ABC flows on a 12 Mbit/s link at
// τ = δ = 100 ms, five packets per flow per round trip, where the fluid
// model's one-increase-per-round-trip approximation is closest (ROADMAP
// item 18's probe put this cell within 2 %).
type Eq13Cell struct {
	// QDelay is the mean sampled queuing delay over 30–60 s, and
	// FixedPoint Eq. 13's x* = dt + δ·((η − 1) + N/(µ·(τ + x*))), both
	// in seconds.
	QDelay, FixedPoint float64
}

// Error is the cell's relative error against the fixed point.
func (c Eq13Cell) Error() float64 { return (c.QDelay - c.FixedPoint) / c.FixedPoint }

// stabilityRegion sweeps δ/τ over [0.1, 2.0] and runs the Eq. 13 cell.
func stabilityRegion(p Params) (*StabilityResult, error) {
	base := fluid.DefaultParams()
	var ratios []float64
	for r := 0.1; r <= 2.0; r += 0.05 {
		ratios = append(ratios, r)
	}
	pts := fluid.SweepDelta(base, ratios, 120*sim.Second)
	res := &StabilityResult{Points: pts, Boundary: -1}
	for _, pt := range pts {
		if pt.Converged {
			res.Boundary = pt.DeltaOverTau
			break
		}
	}
	var err error
	res.Eq13, err = eq13(p)
	return res, err
}

// eq13 runs the Eq. 13 cell, 60 s long.
func eq13(p Params) (Eq13Cell, error) {
	const (
		rate = 12e6
		n    = 20
		tau  = 100 * sim.Millisecond
	)
	cfg := abc.DefaultRouterConfig()
	cfg.Delta = tau
	flows := make([]FlowSpec, n)
	for i := range flows {
		flows[i] = FlowSpec{Scheme: "ABC"}
	}
	res, _, err := p.Run(Spec{
		Seed:     p.Seed,
		Duration: 60 * sim.Second,
		RTT:      tau,
		Sample:   10 * sim.Millisecond,
		Links:    []LinkSpec{{Rate: rate, Qdisc: QdiscSpec{Kind: "abc", Buffer: 2000, ABCConfig: &cfg}}},
		Flows:    flows,
	})
	if err != nil {
		return Eq13Cell{}, err
	}
	return Eq13Cell{
		QDelay:     meanIn(res.QueueDelayTS, 30, inf) / 1000,
		FixedPoint: eq13FixedPoint(cfg, n, rate/8/1500, tau.Seconds()),
	}, nil
}

// eq13FixedPoint solves x = dt + δ·((η − 1) + N/(µ·(τ + x))) by
// iteration (µ in packets/sec, times in seconds): the additive increase
// comes once per round trip, propagation plus queuing.
func eq13FixedPoint(cfg abc.RouterConfig, n, mu, tau float64) float64 {
	dt, delta := cfg.DelayThreshold.Seconds(), cfg.Delta.Seconds()
	x := dt
	for i := 0; i < 200; i++ {
		x = dt + delta*((cfg.Eta-1)+n/(mu*(tau+x)))
	}
	return x
}

func printStability(w io.Writer, r *StabilityResult) {
	fmt.Fprintf(w, "empirical boundary: delta/tau = %.2f (Theorem 3.1: 2/3)\n", r.Boundary)
	for _, p := range r.Points {
		mark := "unstable"
		if p.Converged {
			mark = "stable"
		}
		fmt.Fprintf(w, "delta/tau=%.2f  %-8s  peak-to-peak=%.4f s\n", p.DeltaOverTau, mark, p.PeakToPeak)
	}
	fmt.Fprintf(w, "Eq. 13 packet cell (20 ABC flows, 12 Mbit/s, tau = delta = 100 ms): mean queuing delay %.1f ms, fixed point %.1f ms (error %+.1f%%)\n",
		r.Eq13.QDelay*1000, r.Eq13.FixedPoint*1000, r.Eq13.Error()*100)
}
