package fluid

import (
	"math"
	"testing"
	"testing/quick"

	"abc/internal/sim"
)

func TestDriftConstant(t *testing.T) {
	p := DefaultParams()
	// A = (η−1) + N/(µ·l)
	want := (p.Eta - 1) + p.N/(p.MuPkts*p.L)
	if math.Abs(p.A()-want) > 1e-12 {
		t.Errorf("A = %v, want %v", p.A(), want)
	}
	if p.A() <= 0 {
		t.Error("default params must sit in the A>0 regime")
	}
}

func TestFixedPoint(t *testing.T) {
	p := DefaultParams()
	want := p.A()*p.Delta + p.Dt
	if math.Abs(p.FixedPoint()-want) > 1e-12 {
		t.Errorf("x* = %v, want %v", p.FixedPoint(), want)
	}
	// A<0 regime: empty queue.
	p.N = 0.1
	if p.A() >= 0 {
		t.Skip("parameters not in A<0 regime")
	}
	if p.FixedPoint() != 0 {
		t.Errorf("x* = %v for A<0, want 0", p.FixedPoint())
	}
}

func TestStableByTheorem(t *testing.T) {
	p := DefaultParams()
	p.Delta = 0.5 * p.Tau
	if p.StableByTheorem() {
		t.Error("delta below 2tau/3 declared stable")
	}
	p.Delta = 0.7 * p.Tau
	if !p.StableByTheorem() {
		t.Error("delta above 2tau/3 declared unstable")
	}
	// A<0: stable for any delta (Appendix A case 1).
	p.N = 0.01
	p.Delta = 0.01 * p.Tau
	if !p.StableByTheorem() {
		t.Error("A<0 must be unconditionally stable")
	}
}

func TestConvergesAboveBoundary(t *testing.T) {
	p := DefaultParams()
	p.Delta = 1.33 * p.Tau
	res := Simulate(p, 120*sim.Second, sim.Millisecond)
	if !res.Converged {
		t.Errorf("did not converge: final err %.4f, p2p %.4f", res.FinalError, res.PeakToPeak)
	}
	// And to the predicted fixed point.
	last := res.X[len(res.X)-1]
	if math.Abs(last-p.FixedPoint()) > 0.01 {
		t.Errorf("settled at %.4f, fixed point %.4f", last, p.FixedPoint())
	}
}

func TestOscillatesBelowBoundary(t *testing.T) {
	p := DefaultParams()
	p.Delta = 0.25 * p.Tau
	res := Simulate(p, 120*sim.Second, sim.Millisecond)
	if res.Converged {
		t.Error("converged well below the stability boundary")
	}
	if res.PeakToPeak < 0.001 {
		t.Errorf("expected a visible limit cycle, p2p = %.5f", res.PeakToPeak)
	}
}

func TestAnegativeDrainsToZero(t *testing.T) {
	p := DefaultParams()
	p.N = 0.1 // A < 0
	if p.A() >= 0 {
		t.Skip("parameters not in A<0 regime")
	}
	// Even with a hopeless delta, the queue drains (case 1).
	p.Delta = 0.05 * p.Tau
	res := Simulate(p, 60*sim.Second, sim.Millisecond)
	last := res.X[len(res.X)-1]
	if last > 0.001 {
		t.Errorf("queue did not drain: %.4f", last)
	}
}

// TestBoundaryMatchesTheorem: the empirical convergence boundary from a
// sweep must be within 20% of the theorem's 2/3.
func TestBoundaryMatchesTheorem(t *testing.T) {
	pts := SweepDelta(DefaultParams(), []float64{
		0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0, 1.2,
	}, 120*sim.Second)
	boundary := -1.0
	for _, p := range pts {
		if p.Converged {
			boundary = p.DeltaOverTau
			break
		}
	}
	if boundary < 0 {
		t.Fatal("nothing converged")
	}
	if boundary < 0.45 || boundary > 0.8 {
		t.Errorf("boundary %.2f too far from 2/3", boundary)
	}
	// Monotonicity: once converged, larger ratios stay converged.
	conv := false
	for _, p := range pts {
		if conv && !p.Converged {
			t.Errorf("non-monotone convergence at ratio %.2f", p.DeltaOverTau)
		}
		if p.Converged {
			conv = true
		}
	}
}

// TestInitialConditionIndependence: stability is global — different X0
// values converge to the same fixed point.
func TestInitialConditionIndependence(t *testing.T) {
	f := func(x0Raw uint8) bool {
		p := DefaultParams()
		p.Delta = 1.5 * p.Tau
		p.X0 = float64(x0Raw) / 255 * 0.5 // up to 500 ms initial queue
		res := Simulate(p, 150*sim.Second, sim.Millisecond)
		last := res.X[len(res.X)-1]
		return math.Abs(last-p.FixedPoint()) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSweepDelta measures a 24-point δ/τ sweep.
func BenchmarkSweepDelta(b *testing.B) {
	ratios := make([]float64, 24)
	for i := range ratios {
		ratios[i] = 0.3 + float64(i)*0.05
	}
	base := DefaultParams()
	b.ReportAllocs()
	for b.Loop() {
		SweepDelta(base, ratios, 30*sim.Second)
	}
}

func TestSimulateSamplesTimeline(t *testing.T) {
	res := Simulate(DefaultParams(), 10*sim.Second, sim.Millisecond)
	if len(res.X) != len(res.Times) || len(res.X) == 0 {
		t.Fatalf("series sizes: %d vs %d", len(res.X), len(res.Times))
	}
	for i := 1; i < len(res.Times); i++ {
		if res.Times[i] <= res.Times[i-1] {
			t.Fatal("non-monotone time axis")
		}
	}
	for _, x := range res.X {
		if x < 0 {
			t.Fatal("negative queuing delay")
		}
	}
}
