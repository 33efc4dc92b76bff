package topo

import (
	"fmt"
	"testing"

	"abc/internal/netem"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// rateEdge adds a 8 Mbit/s droptail rate-link edge between two nodes.
func rateEdge(t *testing.T, g *Graph, s *sim.Simulator, from, to int, delay sim.Time, imp Impairments) int {
	t.Helper()
	id, err := g.AddEdge(fmt.Sprintf("e%d-%d", from, to), from, to, delay, imp, func(dst packet.Node) (Link, error) {
		return netem.NewRateLink(s, netem.ConstRate(8e6), qdisc.NewDropTail(100), dst), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// send pushes n MTU data packets of the flow into entry, one per
// millisecond from t = 0, each drawn from tl: the tally a test keeps its
// injected packets on.
func send(s *sim.Simulator, tl *packet.Tally, entry packet.Node, flow, n int) {
	for i := 0; i < n; i++ {
		seq := int64(i)
		s.At(sim.Time(i)*sim.Millisecond, func() {
			entry.Recv(tl.NewData(flow, seq, packet.MTU, s.Now()))
		})
	}
}

// ended reports how many of the packets on tl ended for cause c.
func ended(tl *packet.Tally, c packet.Cause) int64 { return tl.Books().Released[c] }

func TestRouteFlowDelivers(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g := New(s)
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	e1 := rateEdge(t, g, s, a, b, 5*sim.Millisecond, Impairments{})
	e2 := rateEdge(t, g, s, b, c, 0, Impairments{})
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(7, false, []int{e1, e2}, 10*sim.Millisecond, sink)
	if err != nil {
		t.Fatal(err)
	}
	send(s, &tl, entry, 7, 20)
	s.RunUntil(sim.Second)
	if sink.Count != 20 {
		t.Fatalf("delivered %d/20 packets", sink.Count)
	}
	if d := ended(&tl, packet.Unrouted); d != 0 {
		t.Fatalf("unrouted drops = %d, want 0", d)
	}
	if got := g.Edge(e1).Link.DeliveredBytes(); got != 20*packet.MTU {
		t.Fatalf("edge 1 delivered %d bytes, want %d", got, 20*packet.MTU)
	}
}

func TestRouteFlowRejectsNonContiguous(t *testing.T) {
	s := sim.New(1)
	g := New(s)
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	e1 := rateEdge(t, g, s, a, b, 0, Impairments{})
	e2 := rateEdge(t, g, s, c, d, 0, Impairments{})
	if _, err := g.RouteFlow(1, false, []int{e1, e2}, 0, &packet.Sink{}); err == nil {
		t.Fatal("non-contiguous route accepted")
	}
}

func TestRouteFlowRejectsDoubleRoute(t *testing.T) {
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	e1 := rateEdge(t, g, s, a, b, 0, Impairments{})
	if _, err := g.RouteFlow(1, false, []int{e1}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RouteFlow(1, false, []int{e1}, 0, &packet.Sink{}); err == nil {
		t.Fatal("second route for the same flow at the same node accepted")
	}
}

func TestUnroutedPacketsCounted(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	e1 := rateEdge(t, g, s, a, b, 0, Impairments{})
	// Route flow 1 but inject flow 2: it reaches node b with no route.
	if _, err := g.RouteFlow(1, false, []int{e1}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	send(s, &tl, g.Edge(e1), 2, 5)
	s.RunUntil(sim.Second)
	if d := ended(&tl, packet.Unrouted); d != 5 {
		t.Fatalf("unrouted drops = %d, want 5", d)
	}
}

func TestLossGateDropsAndCounts(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	rec := obs.NewRecorder(1<<12, obs.CatPacket)
	g.SetRecorder(rec)
	e1 := rateEdge(t, g, s, a, b, 0, Impairments{LossRate: 0.5})
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{e1}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	send(s, &tl, entry, 1, n)
	s.RunUntil(10 * sim.Second)
	drops := ended(&tl, packet.Impair)
	if drops == 0 || drops == n {
		t.Fatalf("loss gate dropped %d of %d, want 0 < drops < %d", drops, n, n)
	}
	if int64(sink.Count)+drops != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", sink.Count, drops, n)
	}
	if drops < n/3 || drops > 2*n/3 {
		t.Fatalf("loss gate dropped %d of %d at p=0.5, far off", drops, n)
	}
	// Every counted drop is one trace event under the edge's id.
	var events int64
	for _, ev := range rec.Snapshot() {
		if ev.Kind == obs.EvImpairDrop && ev.Src == int32(e1) && ev.Flow == 1 {
			events++
		}
	}
	if events != drops {
		t.Fatalf("%d impair_drop events for %d counted drops", events, drops)
	}
}

func TestJitterPreservesOrder(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	// Pure-delay jittery edge: no link, just impairment + wire.
	e1, err := g.AddEdge("ab", a, b, sim.Millisecond, Impairments{Jitter: 20 * sim.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int64
	sink := packet.NodeFunc(func(p *packet.Packet) {
		seqs = append(seqs, p.Seq)
		p.Release()
	})
	entry, err := g.RouteFlow(1, false, []int{e1}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	send(s, &tl, entry, 1, 200)
	s.RunUntil(10 * sim.Second)
	if len(seqs) != 200 {
		t.Fatalf("delivered %d/200", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("jitter reordered: seq %d after %d", seqs[i], seqs[i-1])
		}
	}
}

func TestImpairmentsDeterministic(t *testing.T) {
	run := func() (delivered int, drops int64) {
		var tl packet.Tally
		s := sim.New(42)
		g := New(s)
		a, b := g.AddNode("a"), g.AddNode("b")
		e1 := rateEdge(t, g, s, a, b, 2*sim.Millisecond, Impairments{
			LossRate:      0.05,
			BurstLossRate: 0.5,
			BurstPBad:     0.02,
			BurstPGood:    0.3,
			Jitter:        5 * sim.Millisecond,
		})
		sink := &packet.Sink{}
		entry, err := g.RouteFlow(1, false, []int{e1}, 0, sink)
		if err != nil {
			t.Fatal(err)
		}
		send(s, &tl, entry, 1, 1000)
		s.RunUntil(10 * sim.Second)
		return sink.Count, ended(&tl, packet.Impair)
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Fatalf("impaired run not deterministic: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
	if x1 == 0 {
		t.Fatal("expected some impairment drops")
	}
}
