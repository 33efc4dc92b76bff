package topo

import (
	"testing"

	"abc/internal/cc"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/sim"
)

// entries counts the class entries in n's forwarding table.
func entries(n *Node) int {
	k := 0
	for _, h := range n.table {
		if h.edge != noRoute {
			k++
		}
	}
	return k
}

// TestFIBClassSharing pins the aggregation contract: flows routed over
// the identical edge sequence share one class — and hence one table
// entry per junction — while still delivering to their own receivers
// through the per-flow tails.
func TestFIBClassSharing(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	sink1, sink2, sink3 := &packet.Sink{}, &packet.Sink{}, &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{e1, e2}, 0, sink1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RouteFlow(2, false, []int{e1, e2}, 0, sink2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RouteFlow(3, false, []int{e3, e4}, 0, sink3); err != nil {
		t.Fatal(err)
	}
	if c1, c2 := flowSlot(g, 1).class[0], flowSlot(g, 2).class[0]; c1 != c2 {
		t.Fatalf("flows 1 and 2 share a route but classes differ: %d vs %d", c1, c2)
	}
	if c1, c3 := flowSlot(g, 1).class[0], flowSlot(g, 3).class[0]; c1 == c3 {
		t.Fatalf("flows 1 and 3 use different routes but share class %d", c1)
	}
	// Junction b forwards for both shared-route flows off one entry.
	if n := entries(g.Node(1)); n != 1 {
		t.Fatalf("node b has %d table entries, want 1 (shared class)", n)
	}
	send(s, &tl, entry, 1, 10)
	for i := 0; i < 10; i++ {
		seq := int64(i)
		s.At(sim.Time(i)*sim.Millisecond, func() {
			at(g, 0).Recv(packet.NewData(2, seq, packet.MTU, s.Now()))
		})
	}
	s.RunUntil(sim.Second)
	if sink1.Count != 10 || sink2.Count != 10 {
		t.Fatalf("delivered %d/%d, want 10/10 (per-flow tails under a shared class)", sink1.Count, sink2.Count)
	}
}

// TestFIBClassRecycling: the last flow leaving a class removes its table
// entries and recycles the id for the next distinct route.
func TestFIBClassRecycling(t *testing.T) {
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	if _, err := g.RouteFlow(1, false, []int{e1, e2}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	old := flowSlot(g, 1).class[0]
	if err := g.Router().Reroute(1, false, []int{e3, e4}); err != nil {
		t.Fatal(err)
	}
	if entries(g.Node(1)) != 0 {
		t.Fatal("old class entries not removed from node b after the last flow left")
	}
	// The freed id is immediately recycled by the new route's class:
	// a steady flap never grows the class registry.
	if got := flowSlot(g, 1).class[0]; got != old {
		t.Fatalf("rerouted flow got class %d, want recycled id %d", got, old)
	}
	if len(g.classes) != 1 || len(g.freeClasses) != 0 {
		t.Fatalf("registry = %d classes, %d free; want 1 live class, 0 free", len(g.classes), len(g.freeClasses))
	}
	// A second flow over the rerouted flow's path shares its class; its
	// detach (another reroute) frees the now-unused id.
	if _, err := g.RouteFlow(2, false, []int{e1, e2}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	second := flowSlot(g, 2).class[0]
	if second == old {
		t.Fatalf("distinct route shares class %d", old)
	}
	if err := g.Router().Reroute(2, false, []int{e3, e4}); err != nil {
		t.Fatal(err)
	}
	if got := flowSlot(g, 2).class[0]; got != old {
		t.Fatalf("flow 2 after reroute got class %d, want shared class %d", got, old)
	}
	if g.classes[old].refs != 2 {
		t.Fatalf("shared class refs = %d, want 2", g.classes[old].refs)
	}
	if len(g.freeClasses) != 1 || g.freeClasses[0] != second {
		t.Fatalf("freeClasses = %v, want [%d]", g.freeClasses, second)
	}
}

// TestUnrouteFlowInvertsRouteFlow: unrouting one of two flows sharing a
// class keeps the class's entries and the other flow forwarding;
// unrouting the second leaves no table entry and no registry entry,
// recycles the class id, and turns a straggler into a counted unrouted
// drop.
func TestUnrouteFlowInvertsRouteFlow(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	sink1, sink2 := &packet.Sink{}, &packet.Sink{}
	if _, err := g.RouteFlow(1, false, []int{e1, e2}, 5*sim.Millisecond, sink1); err != nil {
		t.Fatal(err)
	}
	entry, err := g.RouteFlow(2, false, []int{e1, e2}, 0, sink2)
	if err != nil {
		t.Fatal(err)
	}
	shared := flowSlot(g, 1).class[0]
	if err := g.UnrouteFlow(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.RouteOf(1, false); ok {
		t.Error("RouteOf(1) still reports a route")
	}
	if held, table := g.Slots(); held != 1 || table != 2 || g.slots[0].flow != -1 || g.slots[0].tail[0] != nil {
		t.Errorf("%d of %d slots held, flow 1's left to flow %d with tail %v; want 1 of 2, -1 and nil",
			held, table, g.slots[0].flow, g.slots[0].tail[0])
	}
	if n := entries(g.Node(1)); n != 1 || g.classes[shared].refs != 1 {
		t.Fatalf("node b has %d entries, shared class refs %d; want 1, 1", n, g.classes[shared].refs)
	}
	send(s, &tl, entry, 2, 10)
	s.RunUntil(sim.Second)
	if sink2.Count != 10 || ended(&tl, packet.Unrouted) != 0 {
		t.Fatalf("flow 2 delivered %d/10 with %d unrouted drops after its class-mate left", sink2.Count, ended(&tl, packet.Unrouted))
	}

	if err := g.UnrouteFlow(2); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		if n := entries(g.Node(id)); n != 0 {
			t.Errorf("node %d keeps %d table entries with no flow routed", id, n)
		}
	}
	if held, _ := g.Slots(); held != 0 || len(g.classByRoute) != 0 {
		t.Errorf("registry keeps %d route slots, %d class keys", held, len(g.classByRoute))
	}
	if _, err := g.RouteFlow(3, false, []int{e3, e4}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	if got := flowSlot(g, 3).class[0]; got != shared || len(g.classes) != 1 {
		t.Errorf("new route got class %d of %d, want recycled id %d of 1", got, len(g.classes), shared)
	}
	// A straggler of an unrouted flow is dropped and counted at the first
	// junction it reaches.
	g.Node(0).Recv(tl.NewData(1, 99, packet.MTU, s.Now()))
	if d := ended(&tl, packet.Unrouted); d != 1 || sink1.Count != 0 {
		t.Errorf("straggler: %d unrouted drops, %d delivered; want 1, 0", d, sink1.Count)
	}
	if err := g.UnrouteFlow(1); err == nil {
		t.Error("unrouting a flow twice succeeded")
	}
}

// TestStalePacketMissesSlotHeir: a packet of an unrouted flow still
// carries the flow's route slot, which the next flow routed takes over.
// Such a packet is an unrouted drop wherever the graph resolves it — at
// a junction, and at the end of a wire run to the terminal it was on when
// its flow left — and the slot's new flow never sees it.
func TestStalePacketMissesSlotHeir(t *testing.T) {
	for _, static := range []bool{false, true} {
		var tlA, tlB packet.Tally
		s := sim.New(1)
		g := New(s)
		a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
		path := []int{wire(t, g, a, b, sim.Millisecond), wire(t, g, b, c, sim.Millisecond)}
		if static {
			g.SetStatic()
		}
		sinkA, sinkB := &packet.Sink{}, &packet.Sink{}
		entryA := route(t, g, 1, path, 0, sinkA)
		// On the static graph, A's packet is on the wire run when A leaves.
		var onRun *packet.Packet
		if static {
			if runOf(g, a, 1) == nil {
				t.Fatal("no wire run from a on the static graph")
			}
			onRun = tlA.NewData(1, 0, packet.MTU, 0)
			entryA.Recv(onRun)
		}
		slotA, _ := g.findSlot(1)
		if err := g.UnrouteFlow(1); err != nil {
			t.Fatal(err)
		}
		entryB := route(t, g, 2, path, 0, sinkB)
		if slotB, _ := g.findSlot(2); slotB != slotA {
			t.Fatalf("flow 2 took slot %d, want flow 1's %d", slotB, slotA)
		}
		stale := tlA.NewData(1, 1, packet.MTU, 0)
		stale.Slot = slotA
		g.Node(a).Recv(stale)
		entryB.Recv(tlB.NewData(2, 0, packet.MTU, 0))
		s.Run()
		want := int64(1)
		if static {
			want = 2
		}
		if d := ended(&tlA, packet.Unrouted); d != want || sinkA.Count != 0 || sinkB.Count != 1 || sinkB.Last.Flow != 2 {
			t.Errorf("static %v: %d of flow 1's packets unrouted, %d delivered to it; flow 2's terminal took %d; want %d, 0, 1 of flow 2's own",
				static, d, sinkA.Count, sinkB.Count, want)
		}
	}
}

// TestUnrouteFlowRecyclesTailWires: the access-latency wires of an
// unrouted flow, a routed direction's and a direct one's alike, go to the
// spare list, and the next route built takes one with its own delay and
// terminal.
func TestUnrouteFlowRecyclesTailWires(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	if _, err := g.RouteFlow(1, false, []int{e1, e2}, 5*sim.Millisecond, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	direct, err := g.RouteFlow(1, true, nil, 5*sim.Millisecond, &packet.Sink{})
	if err != nil {
		t.Fatal(err)
	}
	routed := flowSlot(g, 1).tail[0]
	if err := g.UnrouteFlow(1); err != nil {
		t.Fatal(err)
	}
	if len(g.spareWires) != 2 || g.spareWires[0] != routed || g.spareWires[1] != direct {
		t.Fatalf("spare wires %v, want the routed tail %p and the direct one %p", g.spareWires, routed, direct)
	}
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(2, false, []int{e3, e4}, 7*sim.Millisecond, sink)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := flowSlot(g, 2).tail[0].(*netem.Wire)
	if !ok || w != direct || len(g.spareWires) != 1 {
		t.Fatalf("new tail %v with %d spare left, want the last wire unrouted (%p)", flowSlot(g, 2).tail[0], len(g.spareWires), direct)
	}
	if w.Delay != 7*sim.Millisecond || w.Dst != sink {
		t.Errorf("recycled wire: delay %v to %v, want 7ms to the new sink", w.Delay, w.Dst)
	}
	send(s, &tl, entry, 2, 10)
	s.RunUntil(sim.Second)
	if sink.Count != 10 {
		t.Errorf("delivered %d/10 through the recycled tail", sink.Count)
	}
}

// TestUnrouteWaitsForLateAcks: with ACKs reordered (30 % of them deferred
// by 8 ms on their way onto the ACK path, drawn from the ACK edge's
// impairment stream) a finite flow completes while ACKs of its spurious
// retransmissions are still in flight. Teardown tied to its packet tally keeps both routes through
// Finish and removes them when the last late ACK is released: every
// packet that was live at Finish except the ACK completing the flow
// reaches the stopped endpoint and ends late, none is an unrouted drop.
func TestUnrouteWaitsForLateAcks(t *testing.T) {
	s := sim.New(7)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	fwd := rateEdge(t, g, s, a, b, 10*sim.Millisecond, Impairments{})
	rev := rateEdge(t, g, s, b, a, 10*sim.Millisecond, Impairments{})
	alg, err := cc.New("Cubic")
	if err != nil {
		t.Fatal(err)
	}
	ep := cc.NewEndpoint(s, 1, nil, alg)
	ackEntry, err := g.RouteFlow(1, true, []int{rev}, 0, ep)
	if err != nil {
		t.Fatal(err)
	}
	rng := g.Edge(rev).rand("impair")
	reorder := packet.NodeFunc(func(p *packet.Packet) {
		if rng.Float64() < 0.3 {
			s.After(8*sim.Millisecond, func() { ackEntry.Recv(p) })
			return
		}
		ackEntry.Recv(p)
	})
	recv := netem.NewReceiver(s, 1, reorder)
	if ep.Out, err = g.RouteFlow(1, false, []int{fwd}, 0, recv); err != nil {
		t.Fatal(err)
	}
	tally := &ep.Tally
	ep.Src = cc.NewFixed(60 * packet.MTU)
	liveAtFinish := -1
	var finishedAt, drainedAt sim.Time
	ep.OnComplete = func(now sim.Time) {
		ep.Stop()
		finishedAt, liveAtFinish = now, tally.Live()
		tally.Finish(func() {
			drainedAt = s.Now()
			if err := g.UnrouteFlow(1); err != nil {
				t.Error(err)
			}
		})
		if _, ok := g.RouteOf(1, true); !ok {
			t.Error("ACK route removed at Finish with ACKs still in flight")
		}
	}
	s.At(0, ep.Start)
	s.RunUntil(5 * sim.Second)

	if liveAtFinish < 2 || ep.RetxPackets == 0 {
		t.Fatalf("live at Finish = %d, %d retransmissions: the case needs late ACKs", liveAtFinish, ep.RetxPackets)
	}
	if drainedAt <= finishedAt {
		t.Errorf("drained at %v, not after completion at %v", drainedAt, finishedAt)
	}
	books := tally.Books()
	if got, want := books.Released[packet.Late], int64(liveAtFinish-1); got != want {
		t.Errorf("late ACKs = %d, want %d (live at Finish minus the completing ACK)", got, want)
	}
	if books.Live() != 0 || books.Released[packet.Unrouted] != 0 {
		t.Errorf("live = %d, unrouted drops = %d after the drain; want 0, 0", books.Live(), books.Released[packet.Unrouted])
	}
	for _, ack := range []bool{false, true} {
		if _, ok := g.RouteOf(1, ack); ok {
			t.Errorf("%s route survived the drain", dirName(ack))
		}
	}
}

// TestRerouteDrainingDeliversInFlight: with a make-before-break window
// covering the drain time, every packet in flight on the abandoned path
// reaches the receiver — zero stranded drops — and the overrides are
// gone once the window closes.
func TestRerouteDrainingDeliversInFlight(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{e1, e2}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	s.At(0, func() {
		for i := 0; i < n; i++ {
			entry.Recv(tl.NewData(1, int64(i), packet.MTU, s.Now()))
		}
	})
	s.At(10*sim.Millisecond, func() {
		if err := g.Router().RerouteDraining(1, false, []int{e3, e4}, sim.Second); err != nil {
			t.Errorf("draining reroute: %v", err)
		}
	})
	s.RunUntil(3 * sim.Second)
	if sink.Count != n {
		t.Fatalf("delivered %d/%d across a draining reroute", sink.Count, n)
	}
	if d := ended(&tl, packet.Unrouted); d != 0 {
		t.Fatalf("unrouted drops = %d, want 0 (the drain window covers the in-flight packets)", d)
	}
	if g.Node(1).override != nil {
		t.Error("override entries survived the drain window")
	}
}

// TestRerouteDrainingExpiryCountsStragglers: a window shorter than the
// drain time strands the remainder, which must land in the drop
// counters — conservation holds on both sides of the expiry.
func TestRerouteDrainingExpiryCountsStragglers(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{e1, e2}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	s.At(0, func() {
		for i := 0; i < n; i++ {
			entry.Recv(tl.NewData(1, int64(i), packet.MTU, s.Now()))
		}
	})
	// 50 MTU packets at 8 Mbit/s serialize over ~75 ms; a 20 ms window
	// saves some and strands the rest.
	s.At(10*sim.Millisecond, func() {
		if err := g.Router().RerouteDraining(1, false, []int{e3, e4}, 20*sim.Millisecond); err != nil {
			t.Errorf("draining reroute: %v", err)
		}
	})
	s.RunUntil(3 * sim.Second)
	drops := ended(&tl, packet.Unrouted)
	if drops == 0 {
		t.Fatal("expected stragglers past the drain window to be counted")
	}
	if int64(sink.Count)+drops != n {
		t.Fatalf("conservation violated: %d delivered + %d drops != %d sent", sink.Count, drops, n)
	}
	if int64(sink.Count) <= 10 {
		t.Fatalf("only %d delivered; the drain window should have saved the early in-flight packets", sink.Count)
	}
}

// TestRerouteDrainingSuperseded: a second reroute before the first's
// window closes replaces the overrides; the stale cleanup must not
// clobber them, and conservation holds throughout.
func TestRerouteDrainingSuperseded(t *testing.T) {
	var tl packet.Tally
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{e1, e2}, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	s.At(0, func() {
		for i := 0; i < n; i++ {
			entry.Recv(tl.NewData(1, int64(i), packet.MTU, s.Now()))
		}
	})
	r := g.Router()
	s.At(10*sim.Millisecond, func() {
		if err := r.RerouteDraining(1, false, []int{e3, e4}, 30*sim.Millisecond); err != nil {
			t.Errorf("first draining reroute: %v", err)
		}
	})
	s.At(20*sim.Millisecond, func() {
		if err := r.RerouteDraining(1, false, []int{e1, e2}, 30*sim.Millisecond); err != nil {
			t.Errorf("second draining reroute: %v", err)
		}
	})
	s.RunUntil(3 * sim.Second)
	if drops := ended(&tl, packet.Unrouted); int64(sink.Count)+drops != n {
		t.Fatalf("conservation violated: %d delivered + %d drops != %d sent",
			sink.Count, drops, n)
	}
	if route, _ := g.RouteOf(1, false); len(route) != 2 || route[0] != e1 {
		t.Fatalf("final route = %v, want [%d %d]", route, e1, e2)
	}
}

// TestRerouteDrainingValidation: non-positive windows are refused.
func TestRerouteDrainingValidation(t *testing.T) {
	s := sim.New(1)
	g, e1, e2, e3, e4 := twoPathGraph(t, s)
	if _, err := g.RouteFlow(1, false, []int{e1, e2}, 0, &packet.Sink{}); err != nil {
		t.Fatal(err)
	}
	if err := g.Router().RerouteDraining(1, false, []int{e3, e4}, 0); err == nil {
		t.Error("zero drain window accepted")
	}
	if err := g.Router().RerouteDraining(1, false, []int{e3, e4}, -sim.Millisecond); err == nil {
		t.Error("negative drain window accepted")
	}
}
