package exp

import (
	"testing"

	"abc/internal/sim"
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

func TestJainFairness(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		idx, err := jainFairness(RunOptions{}, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n=%d jain=%.3f", n, idx)
		if idx < 0.95 {
			t.Errorf("Jain index %.3f < 0.95 for %d flows", idx, n)
		}
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

func TestFig5PredictionAccuracy(t *testing.T) {
	pts, err := fig5RatePrediction(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	worst := fig5MaxErrorBacklogged(pts)
	t.Logf("worst backlogged prediction error: %.1f%%", worst*100)
	if worst > 0.07 {
		t.Errorf("backlogged link-rate prediction error %.1f%% exceeds the paper's ~5%%", worst*100)
	}
}

func TestFig4SlopeMatchesTheory(t *testing.T) {
	r, err := fig4InterACK(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fitted slope=%.3f ms/frame, theory S/R=%.3f ms/frame, %d samples",
		r.FittedSlopeMs, r.TheorySlopeMs, len(r.Samples))
	if r.FittedSlopeMs <= 0 {
		t.Fatal("no slope fitted")
	}
	rel := (r.FittedSlopeMs - r.TheorySlopeMs) / r.TheorySlopeMs
	if rel < -0.15 || rel > 0.15 {
		t.Errorf("slope off by %.0f%% from S/R", rel*100)
	}
}

func TestFig13AppLimited(t *testing.T) {
	r, err := fig13AppLimited(RunOptions{}, 20, 1.0, 20*sim.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("util=%.2f backlogged=%.1f app=%.2f qdelay p95=%.0fms",
		r.Utilization, r.BackloggedTputMbps, r.AppLimitedTputMbps, r.QDelayP95)
	if r.Utilization < 0.5 {
		t.Errorf("utilization %.2f too low with app-limited flows", r.Utilization)
	}
	if r.AppLimitedTputMbps < 0.5 {
		t.Errorf("app-limited aggregate %.2f Mbit/s below offered 1 Mbit/s", r.AppLimitedTputMbps)
	}
}
