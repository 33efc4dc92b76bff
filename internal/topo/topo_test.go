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
// millisecond from t = 0, each booked on the graph's stray tally.
func send(g *Graph, entry packet.Node, flow, n int) {
	s := g.S
	for i := 0; i < n; i++ {
		seq := int64(i)
		s.At(sim.Time(i)*sim.Millisecond, func() {
			entry.Recv(booked(g, packet.NewData(flow, seq, packet.MTU, s.Now())))
		})
	}
}

// booked attaches p to the graph's stray tally — the books a test keeps
// its injected packets on — and returns it.
func booked(g *Graph, p *packet.Packet) *packet.Packet {
	g.Strays().Adopt(p, 0)
	return p
}

// ended reports how many of the packets a test booked ended for cause c.
func ended(g *Graph, c packet.Cause) int64 { return g.Strays().Books().Released[c] }

func TestRouteFlowDelivers(t *testing.T) {
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
	send(g, entry, 7, 20)
	s.RunUntil(sim.Second)
	if sink.Count != 20 {
		t.Fatalf("delivered %d/20 packets", sink.Count)
	}
	if d := ended(g, packet.Unrouted); d != 0 {
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
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	e1 := rateEdge(t, g, s, a, b, 0, Impairments{})
	// Route flow 1 but inject flow 2: it reaches node b with no route.
	if _, err := g.RouteFlow(1, false, []int{e1}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	send(g, g.Entry(e1), 2, 5)
	s.RunUntil(sim.Second)
	if d := ended(g, packet.Unrouted); d != 5 {
		t.Fatalf("unrouted drops = %d, want 5", d)
	}
}

// TestEntryBooksStrays: a packet that enters an edge without a flow's
// tally is adopted by the graph's stray tally; one that has a tally keeps
// it.
func TestEntryBooksStrays(t *testing.T) {
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	e1 := rateEdge(t, g, s, a, b, 0, Impairments{})
	var own packet.Tally
	mine := own.NewData(1, 0, packet.MTU, 0)
	g.Entry(e1).Recv(mine)
	g.Entry(e1).Recv(packet.NewData(2, 0, packet.MTU, 0))
	s.RunUntil(sim.Second)
	if st, ob := g.Strays().Books(), own.Books(); st.Data != 1 || st.Released[packet.Unrouted] != 1 ||
		ob.Data != 1 || ob.Released[packet.Unrouted] != 1 {
		t.Fatalf("strays %+v, own %+v; want one packet on each, ended unrouted", st, ob)
	}
}

func TestLossGateDropsAndCounts(t *testing.T) {
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
	send(g, entry, 1, n)
	s.RunUntil(10 * sim.Second)
	drops := ended(g, packet.Impair)
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
	send(g, entry, 1, 200)
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
		send(g, entry, 1, 1000)
		s.RunUntil(10 * sim.Second)
		return sink.Count, ended(g, packet.Impair)
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

// TestShardArenas: a sharded graph has one packet arena per shard
// (packet.TestArenasOwnTheirLines pins their layout), and a graph on a
// bare simulator has none, so its flows' packets use the pool.
func TestShardArenas(t *testing.T) {
	if a := New(sim.New(1)).Arenas(); a != nil {
		t.Errorf("a one-simulator graph has %d arenas, want none", len(a))
	}
	for _, shards := range []int{1, 3} {
		g := NewSharded(sim.NewCoordinator(1, shards), nil)
		if a := g.Arenas(); len(a) != shards {
			t.Errorf("%d arenas for %d shards", len(a), shards)
		}
	}
}
