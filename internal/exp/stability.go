// Theorem 3.1 validation: sweep the fluid model's δ/τ ratio and locate
// the stability boundary, which the theorem places at 2/3 when the drift
// constant A is positive.
package exp

import (
	"fmt"
	"io"

	"abc/internal/fluid"
	"abc/internal/sim"
)

// StabilityResult summarizes the sweep.
type StabilityResult struct {
	Points []fluid.BoundaryPoint
	// Boundary is the smallest swept ratio that converged.
	Boundary float64
}

// stabilityRegion sweeps δ/τ over [0.1, 2.0].
func stabilityRegion(Params) (*StabilityResult, error) {
	base := fluid.DefaultParams()
	var ratios []float64
	for r := 0.1; r <= 2.0; r += 0.05 {
		ratios = append(ratios, r)
	}
	pts := fluid.SweepDelta(base, ratios, 120*sim.Second)
	res := &StabilityResult{Points: pts, Boundary: -1}
	for _, p := range pts {
		if p.Converged {
			res.Boundary = p.DeltaOverTau
			break
		}
	}
	return res, nil
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
}
