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
	return &Edge{Name: name, g: &Graph{S: s}, home: s}
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
				p := packet.NewData(1, int64(i), packet.MTU, 0)
				books.Attach(p)
				head.Recv(p)
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

// TestReorderConservesPackets: the reorder pipe may permute delivery but
// must never duplicate or drop — every sequence number injected comes out
// exactly once, and at p=0.3 some actual inversions must occur.
func TestReorderConservesPackets(t *testing.T) {
	s := sim.New(3)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	e1, err := g.AddEdge("ab", a, b, sim.Millisecond,
		Impairments{ReorderProb: 0.3, ReorderDelay: 7 * sim.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	seen := make(map[int64]int, n)
	inverted := 0
	last := int64(-1)
	sink := packet.NodeFunc(func(p *packet.Packet) {
		seen[p.Seq]++
		if p.Seq < last {
			inverted++
		} else {
			last = p.Seq
		}
		p.Release()
	})
	entry, err := g.RouteFlow(1, false, []int{e1}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	send(g, entry, 1, n)
	s.RunUntil(30 * sim.Second)
	if len(seen) != n {
		t.Fatalf("saw %d distinct seqs, want %d", len(seen), n)
	}
	for seq, count := range seen {
		if count != 1 {
			t.Fatalf("seq %d delivered %d times", seq, count)
		}
	}
	if inverted == 0 {
		t.Fatal("no reordering at p=0.3")
	}
	if d := ended(g, packet.Impair); d != 0 {
		t.Fatalf("reorder stage recorded %d drops", d)
	}
}
