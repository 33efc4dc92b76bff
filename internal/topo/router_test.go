package topo

import (
	"fmt"
	"testing"

	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
)

// twoPathGraph builds a diamond: a → b → d over e1,e2 and a → c → d over
// e3,e4, all 8 Mbit/s rate links.
func twoPathGraph(t *testing.T, s *sim.Simulator) (g *Graph, e1, e2, e3, e4 int) {
	t.Helper()
	g = New(s)
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	e1 = rateEdge(t, g, s, a, b, 2*sim.Millisecond, Impairments{})
	e2 = rateEdge(t, g, s, b, d, 2*sim.Millisecond, Impairments{})
	e3 = rateEdge(t, g, s, a, c, 2*sim.Millisecond, Impairments{})
	e4 = rateEdge(t, g, s, c, d, 2*sim.Millisecond, Impairments{})
	return g, e1, e2, e3, e4
}

func TestRerouteMovesTraffic(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{e1, e2}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	// 100 packets over a second; swap paths halfway through. The swap
	// happens between arrivals, so nothing is in flight and every packet
	// must be delivered — the early ones via b, the late ones via c.
	for i := 0; i < 100; i++ {
		seq := int64(i)
		s.At(sim.Time(i)*10*sim.Millisecond, func() {
			entry.Recv(tl.NewData(1, seq, packet.MTU, s.Now()))
		})
	}
	s.At(505*sim.Millisecond, func() {
		if err := g.Router().Reroute(1, false, []int{e3, e4}); err != nil {
			t.Errorf("reroute: %v", err)
		}
	})
	s.RunUntil(2 * sim.Second)
	if sink.Count != 100 {
		t.Fatalf("delivered %d/100 across the reroute", sink.Count)
	}
	if d := ended(&tl, packet.Unrouted); d != 0 {
		t.Fatalf("unrouted drops = %d, want 0 (swap happened with nothing in flight)", d)
	}
	if got := g.Edge(e3).Link.DeliveredBytes(); got != 49*packet.MTU {
		t.Fatalf("new path carried %d bytes, want %d", got, 49*packet.MTU)
	}
	if route, ok := g.RouteOf(1, false); !ok || len(route) != 2 || route[0] != e3 || route[1] != e4 {
		t.Fatalf("RouteOf after reroute = %v, %v", route, ok)
	}
}

func TestRerouteStrandsInFlightAsCountedDrops(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	rec := obs.NewRecorder(1<<12, obs.CatPacket)
	g.SetRecorder(rec)
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{e1, e2}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	// Burst everything at t=0: most packets are queued on e1 when the
	// route moves, drain to node b, and must be counted there — not
	// duplicated onto the new path, not silently lost.
	s.At(0, func() {
		for i := 0; i < n; i++ {
			entry.Recv(tl.NewData(1, int64(i), packet.MTU, s.Now()))
		}
	})
	s.At(10*sim.Millisecond, func() {
		if err := g.Router().Reroute(1, false, []int{e3, e4}); err != nil {
			t.Errorf("reroute: %v", err)
		}
	})
	s.RunUntil(2 * sim.Second)
	drops := ended(&tl, packet.Unrouted)
	if drops == 0 {
		t.Fatal("expected in-flight packets stranded on the old path to be counted")
	}
	if int64(sink.Count)+drops != n {
		t.Fatalf("conservation violated: delivered %d + drops %d != sent %d", sink.Count, drops, n)
	}
	for _, ev := range rec.Snapshot() {
		if ev.Kind == obs.EvUnroutedDrop && ev.Src != 1 { // node b; c is on the new path only
			t.Fatalf("unrouted drop at node %d, want every one at node b", ev.Src)
		}
	}
}

func TestRerouteValidation(t *testing.T) {
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	if _, err := g.RouteFlow(1, false, []int{e1, e2}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	// Direct (edge-less) ACK route: reroutable routes need junctions.
	if _, err := g.RouteFlow(1, true, nil, sim.Millisecond, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	r := g.Router()
	cases := []struct {
		name string
		err  error
	}{
		{"unknown flow", r.CheckReroute(9, false, []int{e3, e4})},
		{"direct route", r.CheckReroute(1, true, []int{e3, e4})},
		{"empty route", r.CheckReroute(1, false, nil)},
		{"wrong origin", r.CheckReroute(1, false, []int{e4})},
		{"non-contiguous", r.CheckReroute(1, false, []int{e3, e2})},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := r.CheckReroute(1, false, []int{e3, e4}); err != nil {
		t.Errorf("valid reroute rejected: %v", err)
	}
	// CheckReroute must not have mutated anything.
	if route, _ := g.RouteOf(1, false); route[0] != e1 {
		t.Error("CheckReroute mutated the installed route")
	}
}

// TestCheckPath: each way a route can be malformed is rejected with its
// own message, and an accepted path costs no allocation (a spawned
// flow's data route is checked on every spawn, and a mesh route is
// longer than a map the compiler keeps on the stack). A route looping
// back to its origin would make the origin's table entry conflict with
// the terminal's.
func TestCheckPath(t *testing.T) {
	s := sim.New(1)
	g := New(s)
	chain := make([]int, 12) // a → n1 → n2 → … → n12
	for i := range chain {
		if i == 0 {
			g.AddNode("a")
		}
		g.AddNode(fmt.Sprintf("n%d", i+1))
		chain[i] = rateEdge(t, g, s, i, i+1, 0, Impairments{})
	}
	ab, bc, cd := chain[0], chain[1], chain[2]
	ba := rateEdge(t, g, s, 1, 0, 0, Impairments{})
	cb := rateEdge(t, g, s, 2, 1, 0, Impairments{})
	for _, tc := range []struct {
		name  string
		edges []int
		err   string
	}{
		{"unknown first edge", []int{99, bc}, "references unknown edge 99"},
		{"unknown later edge", []int{ab, bc, -1}, "references unknown edge -1"},
		{"not contiguous", []int{ab, cd}, `not contiguous: edge 2 starts at "n2", previous ends at "n1"`},
		{"loop to origin", []int{ab, ba}, `loops back over node "a"`},
		{"loop to interior node", []int{ab, bc, cb}, `loops back over node "n1"`},
		{"accepted", []int{ab, bc, cd}, ""},
		{"empty", nil, ""},
	} {
		err := g.CheckPath(tc.edges)
		if got := fmt.Sprint(err); tc.err == "" && err != nil || tc.err != "" && got != tc.err {
			t.Errorf("%s: CheckPath(%v) = %v, want %q", tc.name, tc.edges, err, tc.err)
		}
	}
	for _, path := range [][]int{{ab, bc, cd}, chain} {
		if n := testing.AllocsPerRun(100, func() { _ = g.CheckPath(path) }); n != 0 {
			t.Errorf("CheckPath of an accepted %d-edge path allocates %v times, want 0", len(path), n)
		}
	}
}

func TestLinkDownGate(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	e1 := rateEdge(t, g, s, a, b, 0, Impairments{})
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{e1}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	send(s, &tl, entry, 1, 10) // one per ms from t=0
	s.At(4500*sim.Microsecond, func() { g.Edge(e1).SetDown(true) })
	s.At(7500*sim.Microsecond, func() { g.Edge(e1).SetDown(false) })
	s.RunUntil(sim.Second)
	down := ended(&tl, packet.LinkDown)
	if down != 3 { // packets at t=5,6,7 ms hit the gate
		t.Fatalf("down drops = %d, want 3", down)
	}
	if int64(sink.Count)+down != 10 {
		t.Fatalf("conservation violated: %d delivered + %d down drops != 10", sink.Count, down)
	}
}

// TestDataAndAckRoutesShareJunction pins the (flow, direction) keying:
// the same flow's data and ACK routes may now traverse the same node,
// which the handover topologies rely on.
func TestDataAndAckRoutesShareJunction(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	down := rateEdge(t, g, s, a, b, 0, Impairments{})
	up := rateEdge(t, g, s, b, a, 0, Impairments{})
	dataSink := &packet.Sink{}
	ackSink := &packet.Sink{}
	dataEntry, err := g.RouteFlow(1, false, []int{down}, 0, dataSink)
	if err != nil {
		t.Fatal(err)
	}
	ackEntry, err := g.RouteFlow(1, true, []int{up}, 0, ackSink)
	if err != nil {
		t.Fatalf("ACK route sharing nodes with the data route rejected: %v", err)
	}
	s.At(0, func() {
		data := tl.NewData(1, 0, packet.MTU, s.Now())
		ack := packet.NewAck(data, 1, s.Now())
		dataEntry.Recv(data)
		ackEntry.Recv(ack)
	})
	s.RunUntil(sim.Second)
	if dataSink.Count != 1 || ackSink.Count != 1 {
		t.Fatalf("data %d, ack %d delivered; want 1 and 1", dataSink.Count, ackSink.Count)
	}
	if d := ended(&tl, packet.Unrouted); d != 0 {
		t.Fatalf("unrouted drops = %d", d)
	}
}

// TestInstallOverridesAllocs: the make-before-break overrides find the
// old route's junctions that are off the new route by scanning the new
// route, so what installing them allocates is the overrides alone,
// whatever the new route's length: a 12-edge new route costs no more
// than a 2-edge one with the same junctions off it.
func TestInstallOverridesAllocs(t *testing.T) {
	g := New(sim.New(1))
	o, d := g.AddNode("o"), g.AddNode("d")
	path := func(name string, hops int) []int {
		var edges []int
		from := o
		for i := 1; i <= hops; i++ {
			to := d
			if i < hops {
				to = g.AddNode(fmt.Sprintf("%s%d", name, i))
			}
			id, err := g.AddEdge(fmt.Sprintf("%s%d-%d", name, i-1, i), from, to, 0, Impairments{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			edges, from = append(edges, id), to
		}
		return edges
	}
	old, long, short := path("a", 12), path("b", 12), path("c", 2)
	key := keyOf(1, false)
	allocs := func(edges []int) float64 {
		rt := routeState{edges: edges}
		return testing.AllocsPerRun(50, func() {
			installOverrides(g, key, &rt, old)
			if len(rt.overNodes) != len(old)-1 {
				t.Fatalf("%d overrides installed, want %d", len(rt.overNodes), len(old)-1)
			}
			clearOverrides(key, &rt)
		})
	}
	if l, s := allocs(long), allocs(short); l != s {
		t.Errorf("installing overrides off a %d-edge new route allocates %v times, off a %d-edge one %v", len(long), l, len(short), s)
	}
}
