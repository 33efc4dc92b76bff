package exp

import (
	"reflect"
	"testing"

	"abc/internal/abc"
	"abc/internal/sim"
	"abc/internal/trace"
)

// TestFig1SeriesShape validates the Fig. 1 runner's output: all four
// schemes produce aligned throughput/queue-delay series, Cubic's worst
// queue exceeds ABC's by a wide margin, and ABC's throughput follows the
// link.
func TestFig1SeriesShape(t *testing.T) {
	runs, err := fig1Timeseries(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("schemes = %d", len(runs))
	}
	byScheme := map[string]TimeseriesRun{}
	for _, r := range runs {
		byScheme[r.Scheme] = r
		if len(r.Tput.Times) == 0 || len(r.QDelay.Times) == 0 {
			t.Fatalf("%s: empty series", r.Scheme)
		}
		for i := 1; i < len(r.Tput.Times); i++ {
			if r.Tput.Times[i] <= r.Tput.Times[i-1] {
				t.Fatalf("%s: non-monotone time axis", r.Scheme)
			}
		}
	}
	cubicMaxQ := byScheme["Cubic"].QDelay.Max()
	abcMaxQ := byScheme["ABC"].QDelay.Max()
	if cubicMaxQ < 2*abcMaxQ {
		t.Errorf("Cubic max queue %.0f ms not ≫ ABC's %.0f ms", cubicMaxQ, abcMaxQ)
	}
	if byScheme["ABC"].Summary.Utilization < 0.6 {
		t.Errorf("ABC utilization %.2f on the Fig. 1 trace", byScheme["ABC"].Summary.Utilization)
	}
}

// TestMultiBottleneckEndToEnd runs a two-ABC-router path in full and
// checks the flow converges to the tighter link's rate: the §3.1.2
// minimum rule operating through real traffic.
func TestMultiBottleneckEndToEnd(t *testing.T) {
	up := trace.Constant("up16", 16e6)
	down := trace.Constant("down8", 8e6)
	res, _, err := Run(Spec{
		Seed:     1,
		Duration: 20 * sim.Second,
		Warmup:   5 * sim.Second,
		RTT:      100 * sim.Millisecond,
		Links: []LinkSpec{
			{Trace: up, Qdisc: QdiscSpec{Kind: "abc"}},
			{Trace: down, Qdisc: QdiscSpec{Kind: "abc"}},
		},
		Flows: []FlowSpec{{Scheme: "ABC"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tput := res.Flows[0].TputMbps
	if tput < 6.5 || tput > 8.1 {
		t.Errorf("throughput %.2f Mbit/s, want ≈ the 8 Mbit/s tighter link", tput)
	}
	// The upstream (loose) router must keep essentially no queue.
	if q := res.Qdiscs[0].(*abc.Router); q.Len() > 20 {
		t.Errorf("loose router holds %d packets", q.Len())
	}
	if res.Flows[0].QDelay.P95() > 100 {
		t.Errorf("p95 queuing %.0f ms across two ABC hops", res.Flows[0].QDelay.P95())
	}
}

// TestFeedbackCountsConsistent: over a long run the accelerates plus
// brakes received equal the valid-echo ACKs processed, and the realized
// accel fraction sits near the steady-state value 2f + 1/w = 1.
func TestFeedbackCountsConsistent(t *testing.T) {
	tr := trace.Constant("c", 12e6)
	res, _, err := Run(Spec{
		Seed: 1, Duration: 20 * sim.Second, RTT: 100 * sim.Millisecond,
		Links: []LinkSpec{{Trace: tr}},
		Flows: []FlowSpec{{Scheme: "ABC"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Flows[0].Algorithm.(*abc.Sender)
	total := s.Accels + s.Brakes
	if total == 0 {
		t.Fatal("no feedback received")
	}
	frac := float64(s.Accels) / float64(total)
	// Steady state: 2f + 1/w = 1 with w ≈ BDP ≈ 100 pkts → f ≈ 0.495.
	if frac < 0.42 || frac > 0.56 {
		t.Errorf("accel fraction %.3f far from steady-state ~0.5", frac)
	}
}

// TestLTETraceProperties pins the Fig. 1 trace's character: it must both
// collapse and surge within the 30 s window.
func TestLTETraceProperties(t *testing.T) {
	tr := lteTrace()
	lo, hi := 1e18, 0.0
	for at := sim.Second; at < 30*sim.Second; at += 500 * sim.Millisecond {
		r := tr.CapacityBps(at, 500*sim.Millisecond)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi < 4*(lo+1e5) {
		t.Errorf("LTE trace range %.1f-%.1f Mbit/s lacks the 4x swings", lo/1e6, hi/1e6)
	}
}

// TestSampleIsPassive: a time series costs the run nothing it can
// observe — the same events execute and every flow measures the same,
// whatever the sampling period and whether or not it divides anything.
func TestSampleIsPassive(t *testing.T) {
	specs := map[string]func() Spec{
		"handover": func() Spec { return handoverSpec("ABC", 3*sim.Second, 6*sim.Second, 1) },
		"fig1": func() Spec {
			spec := fig1Spec(lteTrace(), "ABC", 1)
			spec.Duration = 6 * sim.Second
			return spec
		},
	}
	for name, mk := range specs {
		var want *Result
		for _, period := range []sim.Time{0, 100 * sim.Millisecond, 7 * sim.Millisecond} {
			spec := mk()
			spec.Sample = period
			got, _, err := Run(spec)
			if err != nil {
				t.Fatalf("%s sample=%v: %v", name, period, err)
			}
			if want == nil {
				want = got
				continue
			}
			if g, w := got.Graph.S.Executed(), want.Graph.S.Executed(); g != w {
				t.Errorf("%s sample=%v: %d events executed, %d unsampled", name, period, g, w)
			}
			for i := range want.Flows {
				g, w := &got.Flows[i], &want.Flows[i]
				if g.Bytes != w.Bytes || g.Lost != w.Lost || g.Retx != w.Retx ||
					!reflect.DeepEqual(&g.Delay, &w.Delay) || !reflect.DeepEqual(&g.QDelay, &w.QDelay) {
					t.Errorf("%s sample=%v flow %d: measurements differ from the unsampled run", name, period, i)
				}
			}
			if n := len(got.Flows[0].Tput.Times); n != int(spec.Duration/period) {
				t.Errorf("%s sample=%v: %d samples, want %d", name, period, n, spec.Duration/period)
			}
		}
	}
}
