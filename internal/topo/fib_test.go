package topo

import (
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
)

// TestFIBClassSharing pins the aggregation contract: flows routed over
// the identical edge sequence share one class — and hence one table
// entry per junction — while still delivering to their own receivers
// through the per-flow tails.
func TestFIBClassSharing(t *testing.T) {
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
	if c1, c2 := g.classOf[0][1], g.classOf[0][2]; c1 != c2 {
		t.Fatalf("flows 1 and 2 share a route but classes differ: %d vs %d", c1, c2)
	}
	if c1, c3 := g.classOf[0][1], g.classOf[0][3]; c1 == c3 {
		t.Fatalf("flows 1 and 3 use different routes but share class %d", c1)
	}
	// Junction b forwards for both shared-route flows off one entry.
	if n := len(g.Node(1).table); n != 1 {
		t.Fatalf("node b has %d table entries, want 1 (shared class)", n)
	}
	send(s, entry, 1, 10)
	for i := 0; i < 10; i++ {
		seq := int64(i)
		s.At(sim.Time(i)*sim.Millisecond, func() {
			g.Node(0).Recv(packet.NewData(2, seq, packet.MTU, s.Now()))
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
	old := g.classOf[0][1]
	if err := g.Router().Reroute(1, false, []int{e3, e4}); err != nil {
		t.Fatal(err)
	}
	if len(g.Node(1).table) != 0 {
		t.Fatal("old class entries not removed from node b after the last flow left")
	}
	// The freed id is immediately recycled by the new route's class:
	// a steady flap never grows the class registry.
	if got := g.classOf[0][1]; got != old {
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
	second := g.classOf[0][2]
	if second == old {
		t.Fatalf("distinct route shares class %d", old)
	}
	if err := g.Router().Reroute(2, false, []int{e3, e4}); err != nil {
		t.Fatal(err)
	}
	if got := g.classOf[0][2]; got != old {
		t.Fatalf("flow 2 after reroute got class %d, want shared class %d", got, old)
	}
	if g.classes[old].refs != 2 {
		t.Fatalf("shared class refs = %d, want 2", g.classes[old].refs)
	}
	if len(g.freeClasses) != 1 || g.freeClasses[0] != second {
		t.Fatalf("freeClasses = %v, want [%d]", g.freeClasses, second)
	}
}

// TestRerouteDrainingDeliversInFlight: with a make-before-break window
// covering the drain time, every packet in flight on the abandoned path
// reaches the receiver — zero stranded drops — and the overrides are
// gone once the window closes.
func TestRerouteDrainingDeliversInFlight(t *testing.T) {
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
			entry.Recv(packet.NewData(1, int64(i), packet.MTU, s.Now()))
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
	if d := g.UnroutedDrops(); d != 0 {
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
			entry.Recv(packet.NewData(1, int64(i), packet.MTU, s.Now()))
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
	drops := g.UnroutedDrops()
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
			entry.Recv(packet.NewData(1, int64(i), packet.MTU, s.Now()))
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
	if int64(sink.Count)+g.UnroutedDrops() != n {
		t.Fatalf("conservation violated: %d delivered + %d drops != %d sent",
			sink.Count, g.UnroutedDrops(), n)
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
