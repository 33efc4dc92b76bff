package topo

import (
	"fmt"
	"testing"

	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// delayDiamond builds a diamond with asymmetric propagation delays:
// a → b → d over e1,e2 (2 ms each) and a → c → d over e3,e4 (5 ms
// each), all 8 Mbit/s rate links — so the upper path is the shortest
// while it's up.
func delayDiamond(t *testing.T, s *sim.Simulator) (g *Graph, e1, e2, e3, e4 int) {
	t.Helper()
	g = New(s)
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	mk := func(from, to int, delay sim.Time) int {
		id, err := g.AddEdge(fmt.Sprintf("d%d-%d", from, to), from, to, delay, Impairments{},
			func(dst packet.Node) (Link, error) {
				return netem.NewRateLink(s, netem.ConstRate(8e6), qdisc.NewDropTail(100), dst), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	e1 = mk(a, b, 2*sim.Millisecond)
	e2 = mk(b, d, 2*sim.Millisecond)
	e3 = mk(a, c, 5*sim.Millisecond)
	e4 = mk(c, d, 5*sim.Millisecond)
	return g, e1, e2, e3, e4
}

func TestLinkStateShortestPath(t *testing.T) {
	s := sim.New(1)
	g, e1, e2, e3, e4 := delayDiamond(t, s)
	v := LinkStateOf(g)
	if got := v.ShortestPath(0, 3, nil, false); len(got) != 2 || got[0] != e1 || got[1] != e2 {
		t.Fatalf("all-up shortest = %v, want [%d %d]", got, e1, e2)
	}
	g.Edge(e1).SetDown(true)
	if got := v.ShortestPath(0, 3, nil, false); len(got) != 2 || got[0] != e3 || got[1] != e4 {
		t.Fatalf("shortest with e1 down = %v, want [%d %d]", got, e3, e4)
	}
	// ignoreDown sees the full topology regardless of link state.
	if got := v.ShortestPath(0, 3, nil, true); len(got) != 2 || got[0] != e1 {
		t.Fatalf("ignoreDown shortest = %v, want the upper path", got)
	}
	g.Edge(e3).SetDown(true)
	if got := v.ShortestPath(0, 3, nil, false); got != nil {
		t.Fatalf("shortest with both first hops down = %v, want nil", got)
	}
	g.Edge(e1).SetDown(false)
	g.Edge(e3).SetDown(false)
	if got := v.ShortestPath(0, 3, map[int]bool{e1: true}, false); len(got) != 2 || got[0] != e3 {
		t.Fatalf("shortest avoiding e1 = %v, want the lower path", got)
	}
	if got := v.ShortestPath(0, 0, nil, false); got != nil {
		t.Fatalf("path to self = %v, want nil", got)
	}
}

// TestShortestPathEmergentReroute: no scripted reroutes — the policy
// reacts to link_down/link_up on its own, conservation holds, and the
// route returns to the shorter path once the outage clears.
func TestShortestPathEmergentReroute(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g, e1, e2, e3, e4 := delayDiamond(t, s)
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{e1, e2}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := NewAutoRouter(g, ShortestPathPolicy{}, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var changes [][]int
	ar.OnChange = func(flow int, ack bool, edges []int) {
		changes = append(changes, append([]int(nil), edges...))
	}
	if err := ar.Manage(1, false); err != nil {
		t.Fatal(err)
	}
	const n = 100
	send(s, &tl, entry, 1, n) // one per ms from t=0
	s.At(20500*sim.Microsecond, func() { g.Edge(e1).SetDown(true) })
	s.At(60500*sim.Microsecond, func() { g.Edge(e1).SetDown(false) })
	s.RunUntil(2 * sim.Second)

	if ar.Changes != 2 || len(changes) != 2 {
		t.Fatalf("route changes = %d (%v), want 2 (failover + recovery)", ar.Changes, changes)
	}
	if changes[0][0] != e3 || changes[0][1] != e4 {
		t.Fatalf("failover path = %v, want [%d %d]", changes[0], e3, e4)
	}
	if route, _ := g.RouteOf(1, false); route[0] != e1 || route[1] != e2 {
		t.Fatalf("final route = %v, want the recovered shortest path", route)
	}
	down, unrouted := ended(&tl, packet.LinkDown), ended(&tl, packet.Unrouted)
	if total := int64(sink.Count) + down + unrouted; total != n {
		t.Fatalf("conservation violated: delivered %d + down %d + unrouted %d != %d",
			sink.Count, down, unrouted, n)
	}
	if down == 0 {
		t.Fatal("expected packets sent during the convergence window to hit the down gate")
	}
}

// TestAutoRouterCoalescesFlap: a down/up flap inside one convergence
// window is absorbed — by recompute time the link state matches the
// installed route and nothing moves.
func TestAutoRouterCoalescesFlap(t *testing.T) {
	s := sim.New(1)
	g, e1, e2, _, _ := delayDiamond(t, s)
	if _, err := g.RouteFlow(1, false, []int{e1, e2}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	ar, err := NewAutoRouter(g, ShortestPathPolicy{}, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := ar.Manage(1, false); err != nil {
		t.Fatal(err)
	}
	s.At(20*sim.Millisecond, func() { g.Edge(e1).SetDown(true) })
	s.At(22*sim.Millisecond, func() { g.Edge(e1).SetDown(false) })
	s.RunUntil(sim.Second)
	if ar.Changes != 0 {
		t.Fatalf("route changes = %d, want 0 (flap absorbed within the convergence window)", ar.Changes)
	}
	if route, _ := g.RouteOf(1, false); route[0] != e1 {
		t.Fatalf("route moved to %v during an absorbed flap", route)
	}
}

// TestKFailoverPolicy: backups are precomputed edge-disjoint at Manage
// time; outages fail over to the first fully-up candidate and recovery
// returns to the primary.
func TestKFailoverPolicy(t *testing.T) {
	s := sim.New(1)
	g, e1, e2, e3, e4 := delayDiamond(t, s)
	if _, err := g.RouteFlow(1, false, []int{e1, e2}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	ar, err := NewAutoRouter(g, &KFailoverPolicy{K: 1}, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := ar.Manage(1, false); err != nil {
		t.Fatal(err)
	}
	s.At(20*sim.Millisecond, func() { g.Edge(e2).SetDown(true) })
	s.At(100*sim.Millisecond, func() {
		if route, _ := g.RouteOf(1, false); route[0] != e3 || route[1] != e4 {
			t.Errorf("route after e2 outage = %v, want the precomputed backup", route)
		}
	})
	s.At(200*sim.Millisecond, func() { g.Edge(e2).SetDown(false) })
	s.RunUntil(sim.Second)
	if route, _ := g.RouteOf(1, false); route[0] != e1 || route[1] != e2 {
		t.Fatalf("final route = %v, want the recovered primary", route)
	}
	if ar.Changes != 2 {
		t.Fatalf("route changes = %d, want 2", ar.Changes)
	}
	// All candidates down: the policy leaves the route in place.
	s2 := sim.New(1)
	g2, f1, f2, f3, _ := delayDiamond(t, s2)
	if _, err := g2.RouteFlow(1, false, []int{f1, f2}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	ar2, err := NewAutoRouter(g2, &KFailoverPolicy{}, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := ar2.Manage(1, false); err != nil {
		t.Fatal(err)
	}
	s2.At(20*sim.Millisecond, func() {
		g2.Edge(f1).SetDown(true)
		g2.Edge(f3).SetDown(true)
	})
	s2.RunUntil(sim.Second)
	if ar2.Changes != 0 {
		t.Fatalf("route changes with every candidate down = %d, want 0", ar2.Changes)
	}
}

// TestKFailoverNoBackupError: a topology without an edge-disjoint
// alternative fails loudly at Manage time, not silently at failover.
func TestKFailoverNoBackupError(t *testing.T) {
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	e1 := rateEdge(t, g, s, a, b, sim.Millisecond, Impairments{})
	if _, err := g.RouteFlow(1, false, []int{e1}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	ar, err := NewAutoRouter(g, &KFailoverPolicy{K: 2}, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := ar.Manage(1, false); err == nil {
		t.Fatal("kfailover accepted a route with no disjoint backup")
	}
}

// TestAutoRouterDrainingMakeBeforeBreak: with a drain window set, an
// emergent route change (triggered here by a flap of the idle upper path,
// so the old path stays up) delivers every in-flight packet — zero
// stranded drops.
func TestAutoRouterDrainingMakeBeforeBreak(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g, e1, e2, e3, e4 := delayDiamond(t, s)
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{e3, e4}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := NewAutoRouter(g, ShortestPathPolicy{}, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ar.SetDrain(500 * sim.Millisecond)
	if err := ar.Manage(1, false); err != nil {
		t.Fatal(err)
	}
	const n = 50
	s.At(0, func() {
		for i := 0; i < n; i++ {
			entry.Recv(packet.NewData(1, int64(i), packet.MTU, s.Now()))
		}
	})
	// The flow starts on the longer lower path. A flap of the idle upper
	// path triggers a recompute, which moves the route onto the shortest
	// path while ~40 packets still queue on e3.
	s.At(10*sim.Millisecond, func() { g.Edge(e1).SetDown(true) })
	s.At(11*sim.Millisecond, func() { g.Edge(e1).SetDown(false) })
	s.RunUntil(3 * sim.Second)
	if ar.Changes != 1 {
		t.Fatalf("route changes = %d, want 1", ar.Changes)
	}
	if route, _ := g.RouteOf(1, false); route[0] != e1 || route[1] != e2 {
		t.Fatalf("route = %v, want the upper path", route)
	}
	if sink.Count != n {
		t.Fatalf("delivered %d/%d; make-before-break must drain the old path", sink.Count, n)
	}
	if d := ended(&tl, packet.Unrouted); d != 0 {
		t.Fatalf("unrouted drops = %d, want 0", d)
	}
}

// TestAutoRouterValidation: construction and Manage reject what they
// cannot support, loudly.
func TestAutoRouterValidation(t *testing.T) {
	s := sim.New(1)
	g, e1, e2, _, _ := delayDiamond(t, s)
	if _, err := NewAutoRouter(g, ShortestPathPolicy{}, 0); err == nil {
		t.Error("zero recompute latency accepted")
	}
	if _, err := NewAutoRouter(g, ShortestPathPolicy{}, -sim.Millisecond); err == nil {
		t.Error("negative recompute latency accepted")
	}
	ar, err := NewAutoRouter(g, ShortestPathPolicy{}, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := ar.Manage(1, false); err == nil {
		t.Error("managing an unrouted flow accepted")
	}
	if _, err := g.RouteFlow(1, false, []int{e1, e2}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RouteFlow(1, true, nil, sim.Millisecond, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	if err := ar.Manage(1, true); err == nil {
		t.Error("managing a direct-wire route accepted")
	}
	if err := ar.Manage(1, false); err != nil {
		t.Fatalf("valid manage rejected: %v", err)
	}
	if err := ar.Manage(1, false); err == nil {
		t.Error("double manage accepted")
	}
}

// TestOnLinkChangeNotifies pins the watcher contract: actual up/down
// transitions notify, no-op SetDowns do not.
func TestOnLinkChangeNotifies(t *testing.T) {
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	e1, err := g.AddEdge("ab", a, b, sim.Millisecond, Impairments{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	g.OnLinkChange(func(*Edge) { n++ })
	g.Edge(e1).SetDown(true)
	if n != 1 {
		t.Fatalf("notifications after SetDown(true) = %d, want 1", n)
	}
	g.Edge(e1).SetDown(true) // no transition
	if n != 1 {
		t.Fatalf("no-op SetDown notified (n = %d)", n)
	}
	g.Edge(e1).SetDown(false)
	if n != 2 {
		t.Fatalf("notifications after SetDown(false) = %d, want 2", n)
	}
}
