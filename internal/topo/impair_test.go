package topo

import (
	"math"
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
)

// testEdge is a bare edge of the given name on s, untraced: enough for
// an impairment stage to draw its RNG and drop through.
func testEdge(s *sim.Simulator, name string) *Edge {
	return &Edge{Name: name, g: &Graph{S: s}}
}

// TestGilbertElliottStationaryLoss checks the burst-loss gate against the
// model's stationary distribution: the chain spends π_bad = p_bad /
// (p_bad + p_good) of its time in the bad state and only drops there
// (with probability lossBad), so the long-run empirical loss rate must
// converge to π_bad·lossBad. Losses are burst-correlated (runs of length
// ~1/p_good), so the tolerance is wider than an i.i.d. bound.
func TestGilbertElliottStationaryLoss(t *testing.T) {
	cases := []struct {
		name                 string
		lossBad, pBad, pGood float64
	}{
		{"short bursts", 0.5, 0.02, 0.3},
		{"long bursts", 0.8, 0.01, 0.05},
		{"near-iid", 0.3, 0.2, 0.8},
	}
	const n = 200000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(7)
			sink := &packet.Sink{}
			head := Impairments{
				BurstLossRate: tc.lossBad,
				BurstPBad:     tc.pBad,
				BurstPGood:    tc.pGood,
			}.build(testEdge(s, "ge"), sink)
			var books packet.Tally
			for i := 0; i < n; i++ {
				head.Recv(books.NewData(1, int64(i), packet.MTU, 0))
			}
			drops := books.Books().Released[packet.Impair]
			if int64(sink.Count)+drops != n {
				t.Fatalf("delivered %d + dropped %d != sent %d", sink.Count, drops, n)
			}
			piBad := tc.pBad / (tc.pBad + tc.pGood)
			want := piBad * tc.lossBad
			got := float64(drops) / n
			if rel := math.Abs(got-want) / want; rel > 0.10 {
				t.Errorf("empirical loss %.4f vs stationary π_bad·lossBad %.4f (off %.0f%%)",
					got, want, rel*100)
			}
		})
	}
}
