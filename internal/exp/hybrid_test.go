// Hybrid fluid/packet fidelity: the whole point of the fluid background
// is to stand in for real packet-level background flows, so these tests
// run both on the same bottleneck — N genuine rate-limited packet flows
// versus one "const" fluid aggregate offering the same total — and
// require the packet-level foreground to agree on throughput and p95
// queueing delay between the two worlds within stated tolerances.
package exp

import (
	"fmt"
	"math"
	"testing"

	"abc/internal/netem"
	"abc/internal/sim"
)

// fidelityRun runs one backlogged foreground flow of the given scheme
// against either N real rate-limited background flows (fluid=false) or
// one fluid const aggregate of the same total offered rate (fluid=true)
// on a 48 Mbps rate bottleneck, and returns the foreground's throughput
// and p95 queueing delay.
func fidelityRun(t *testing.T, scheme string, n int, totalMbps float64, fluid bool) (tputMbps, qP95 float64) {
	t.Helper()
	const muMbps = 48.0
	spec := Spec{
		Seed:     1,
		Duration: 12 * sim.Second,
		Links: []LinkSpec{{
			Rate:  netem.ConstRate(muMbps * 1e6),
			Qdisc: QdiscSpec{Kind: "auto", Buffer: 250},
		}},
		Flows: []FlowSpec{{Scheme: scheme}},
	}
	if fluid {
		spec.Background = []BackgroundSpec{{
			Edge: "fwd0", Kind: "const", Flows: n, RateMbps: totalMbps,
		}}
	} else {
		per := totalMbps * 1e6 / float64(n)
		for i := 0; i < n; i++ {
			spec.Flows = append(spec.Flows, FlowSpec{
				Scheme: scheme,
				Source: &SourceSpec{Kind: "rate", Rate: per},
			})
		}
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	fg := &res.Flows[0]
	return fg.TputMbps, fg.QDelay.P95()
}

// TestHybridFidelity is the satellite property test: across flow
// counts, offered loads and schemes, the fluid stand-in and the real
// packet ensemble must leave the foreground in the same place —
// throughput within 15% (or 1.5 Mbps, whichever is looser) and p95
// queueing delay within 25% or 5 ms.
func TestHybridFidelity(t *testing.T) {
	cases := []struct {
		scheme    string
		n         int
		totalMbps float64
	}{
		{"ABC", 4, 12},
		{"ABC", 16, 24},
		{"Cubic", 4, 12},
		{"Cubic", 16, 24},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s-n%d-r%g", c.scheme, c.n, c.totalMbps), func(t *testing.T) {
			t.Parallel()
			pktTput, pktQ := fidelityRun(t, c.scheme, c.n, c.totalMbps, false)
			fluTput, fluQ := fidelityRun(t, c.scheme, c.n, c.totalMbps, true)
			t.Logf("packet: fg %.2f Mbps, q p95 %.1f ms; fluid: fg %.2f Mbps, q p95 %.1f ms",
				pktTput, pktQ, fluTput, fluQ)

			tputTol := math.Max(0.15*pktTput, 1.5)
			if diff := math.Abs(fluTput - pktTput); diff > tputTol {
				t.Errorf("foreground throughput disagrees: packet %.2f Mbps vs fluid %.2f Mbps (tol %.2f)",
					pktTput, fluTput, tputTol)
			}
			qTol := math.Max(0.25*pktQ, 5)
			if diff := math.Abs(fluQ - pktQ); diff > qTol {
				t.Errorf("foreground p95 queueing delay disagrees: packet %.1f ms vs fluid %.1f ms (tol %.1f)",
					pktQ, fluQ, qTol)
			}
		})
	}
}

// TestRateSourceDelivers: a lone rate-limited source on an idle link
// delivers what it asks for. The fidelity comparison above stands N
// such flows in for a fluid aggregate, so a source that under-delivers
// would make the packet side of every comparison a lighter load.
func TestRateSourceDelivers(t *testing.T) {
	for _, scheme := range []string{"Cubic", "ABC"} {
		for _, mbps := range []float64{6, 12, 24} {
			res, _, err := Run(Spec{
				Seed:     1,
				Duration: 10 * sim.Second,
				Links: []LinkSpec{{
					Rate:  netem.ConstRate(48e6),
					Qdisc: QdiscSpec{Kind: "auto", Buffer: 250},
				}},
				Flows: []FlowSpec{{Scheme: scheme, Source: &SourceSpec{Kind: "rate", Rate: mbps * 1e6}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Flows[0].TputMbps; math.Abs(got-mbps) > 0.01*mbps {
				t.Errorf("%s asked for %g Mbit/s, delivered %.2f", scheme, mbps, got)
			}
		}
	}
}

// TestHybridWiring locks down the loud-failure contract of the
// background clause at the harness level: unknown edges, duplicate
// edges and link models without a background-aware service loop are
// errors, not silent no-ops.
func TestHybridWiring(t *testing.T) {
	base := func() Spec {
		return Spec{
			Seed:     1,
			Duration: sim.Second,
			Links: []LinkSpec{{
				Rate:  netem.ConstRate(10e6),
				Qdisc: QdiscSpec{Kind: "auto", Buffer: 250},
			}},
			Flows: []FlowSpec{{Scheme: "ABC"}},
		}
	}
	t.Run("unknown-edge", func(t *testing.T) {
		spec := base()
		spec.Background = []BackgroundSpec{{Edge: "fwd7", Kind: "const", RateMbps: 1}}
		if _, _, err := Run(spec); err == nil {
			t.Fatal("background on unknown edge did not error")
		}
	})
	t.Run("duplicate-edge", func(t *testing.T) {
		spec := base()
		spec.Background = []BackgroundSpec{
			{Edge: "fwd0", Kind: "const", RateMbps: 1},
			{Edge: "fwd0", Kind: "const", RateMbps: 2},
		}
		if _, _, err := Run(spec); err == nil {
			t.Fatal("duplicate background edge did not error")
		}
	})
	t.Run("bad-kind", func(t *testing.T) {
		spec := base()
		spec.Background = []BackgroundSpec{{Edge: "fwd0", Kind: "poisson", RateMbps: 1}}
		if _, _, err := Run(spec); err == nil {
			t.Fatal("unknown aggregate kind did not error")
		}
	})
	t.Run("works-on-trace-link", func(t *testing.T) {
		spec := base()
		spec.Background = []BackgroundSpec{{Edge: "fwd0", Kind: "const", Flows: 100, RateMbps: 4}}
		res, _, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Backgrounds) != 1 || res.Backgrounds[0].ServedMB <= 0 {
			t.Fatalf("background result missing or idle: %+v", res.Backgrounds)
		}
	})
}
