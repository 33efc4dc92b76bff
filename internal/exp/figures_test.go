package exp

import (
	"math"
	"math/rand"
	"testing"
)

func TestFig2DequeueBeatsEnqueue(t *testing.T) {
	r, err := fig2FeedbackMode(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dequeue: util=%.2f qdelay p95=%.0fms; enqueue: util=%.2f qdelay p95=%.0fms",
		r.Dequeue.Utilization, r.QDelayP95Dequeue, r.Enqueue.Utilization, r.QDelayP95Enqueue)
	if r.QDelayP95Enqueue <= r.QDelayP95Dequeue {
		t.Errorf("enqueue-rate feedback should have higher p95 queuing delay (got %0.f vs %0.f ms)",
			r.QDelayP95Enqueue, r.QDelayP95Dequeue)
	}
}

func TestFig17SquareWave(t *testing.T) {
	runs, err := fig17SquareWave(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]Fig17Run{}
	for _, r := range runs {
		byScheme[r.Scheme] = r
		t.Logf("%s: util=%.2f qdelay p95=%.0fms", r.Scheme, r.Summary.Utilization, r.QDelayP95)
	}
	abcRun := byScheme["ABC"]
	rcp := byScheme["RCP"]
	if abcRun.Summary.Utilization < 0.75 {
		t.Errorf("ABC utilization %.2f too low on square wave", abcRun.Summary.Utilization)
	}
	if rcp.Summary.Utilization > abcRun.Summary.Utilization+0.05 {
		t.Errorf("RCP (%.2f) should not beat ABC (%.2f) on square wave",
			rcp.Summary.Utilization, abcRun.Summary.Utilization)
	}
}

func TestStabilityRegion(t *testing.T) {
	res, err := stabilityRegion(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Boundary < 0 {
		t.Fatal("no stable ratio found")
	}
	t.Logf("empirical stability boundary at delta/tau=%.2f (theorem: 0.67)", res.Boundary)
	if res.Boundary > 0.85 {
		t.Errorf("boundary %.2f far above theorem's 2/3", res.Boundary)
	}
	// Well below the boundary the model must oscillate or diverge.
	for _, p := range res.Points {
		if p.DeltaOverTau < 0.3 && p.Converged {
			t.Errorf("ratio %.2f converged but should be unstable", p.DeltaOverTau)
		}
		if p.DeltaOverTau > 1.2 && !p.Converged {
			t.Errorf("ratio %.2f did not converge but should be stable", p.DeltaOverTau)
		}
	}
}

// TestFig4FitIgnoresMapOrder: the slope fit over per-batch means is the
// same to the last bit however often it runs, though Go ranges over a
// map in a different order each time.
func TestFig4FitIgnoresMapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	means := make(map[int]float64)
	for b := 1; b <= 20; b++ {
		means[b] = 0.923*float64(b) + 0.31 + 0.05*rng.Float64()
	}
	want := fitSlope(means)
	if want <= 0.9 || want >= 0.95 {
		t.Fatalf("slope %v, want about 0.923", want)
	}
	for i := 0; i < 200; i++ {
		if got := fitSlope(means); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fit %d gave slope %v, the first gave %v", i, got, want)
		}
	}
}
