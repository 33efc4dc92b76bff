package topo

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/sim"
)

// arrival is one packet reaching a terminal: when, of which flow, and
// when it was sent (which names the packet within its flow).
type arrival struct {
	at, sent sim.Time
	flow     int
}

// wireRunCase is a graph for the wire-run tests: edges adds its nodes,
// edges and attacks; routes installs one route per flow (flow ids 0, 1,
// ...) ending at sink and returns each flow's entry.
type wireRunCase struct {
	edges  func(t *testing.T, g *Graph)
	routes func(t *testing.T, g *Graph, sink packet.Node) []packet.Node
}

// run builds the case, declared static between its edges and its routes
// when static is set, sends ten packets per flow (flow f at f·300 µs
// past each millisecond) and runs to the end. It returns the graph, the
// arrivals in the order they happened and the events executed.
func (c wireRunCase) run(t *testing.T, static bool) (*Graph, []arrival, uint64) {
	t.Helper()
	s := sim.New(1)
	g := New(s)
	c.edges(t, g)
	if static {
		g.SetStatic()
	}
	var got []arrival
	var tl packet.Tally
	sink := packet.NodeFunc(func(p *packet.Packet) {
		got = append(got, arrival{s.Now(), p.SentAt, p.Flow})
		p.Release()
	})
	for f, entry := range c.routes(t, g, sink) {
		f, entry := f, entry
		for i := 0; i < 10; i++ {
			s.At(sim.Time(i)*sim.Millisecond+sim.Time(f)*300*sim.Microsecond, func() {
				entry.Recv(tl.NewData(f, 0, packet.MTU, s.Now()))
			})
		}
	}
	s.Run()
	return g, got, s.Executed()
}

// twins runs the case unfused and static and requires the same arrivals
// at the same instants in the same order; it returns the static graph
// and both event counts.
func (c wireRunCase) twins(t *testing.T) (g *Graph, dynamic, static uint64) {
	t.Helper()
	_, want, dynamic := c.run(t, false)
	g, got, static := c.run(t, true)
	if len(want) == 0 {
		t.Fatal("nothing arrived")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("static arrivals differ from hop-by-hop ones:\n got %v\nwant %v", got, want)
	}
	return g, dynamic, static
}

// wire adds a bare edge.
func wire(t *testing.T, g *Graph, from, to int, d sim.Time) int {
	t.Helper()
	id, err := g.AddEdge(fmt.Sprintf("w%d-%d", from, to), from, to, d, Impairments{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// route installs one data route and fails the test on error.
func route(t *testing.T, g *Graph, flow int, edges []int, tail sim.Time, sink packet.Node) packet.Node {
	t.Helper()
	entry, err := g.RouteFlow(flow, false, edges, tail, sink)
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

// runOf returns the wire run that the data class of flow hangs off node
// n, or nil.
func runOf(g *Graph, n, flow int) *run {
	return g.nodes[n].table[g.classOf[0][flow]].run
}

// TestWireRunEndsAtLinkImpairmentAttack routes a flow over two bare
// wires, then an edge with a link, an impairment or an attack and a 3 ms
// delay, then a bare wire and the access tail. The stretch from the
// origin ends at that edge, and a second one starts behind it: at its
// exit (the link's or impairment's output), or at the next junction's
// forward when an attack stands at the edge's entry instead. Every
// packet arrives when and where hop-by-hop forwarding puts it, at one
// event per stretch.
func TestWireRunEndsAtLinkImpairmentAttack(t *testing.T) {
	for _, kind := range []string{"link", "impairment", "attack"} {
		t.Run(kind, func(t *testing.T) {
			var mid int
			c := wireRunCase{
				edges: func(t *testing.T, g *Graph) {
					for i := 0; i < 5; i++ {
						g.AddNode(fmt.Sprint("n", i))
					}
					wire(t, g, 0, 1, sim.Millisecond)
					wire(t, g, 1, 2, 2*sim.Millisecond)
					switch kind {
					case "link":
						mid = rateEdge(t, g, g.S, 2, 3, 3*sim.Millisecond, Impairments{})
					case "impairment":
						mid = wireImpaired(t, g, 2, 3, 3*sim.Millisecond, Impairments{LossRate: 0.3})
					case "attack":
						mid = wire(t, g, 2, 3, 3*sim.Millisecond)
						g.Edge(mid).SetAttack(&Attack{ExtraDelay: 700 * sim.Microsecond, Target: Target{Fraction: 1}})
					}
					wire(t, g, 3, 4, 4*sim.Millisecond)
				},
				routes: func(t *testing.T, g *Graph, sink packet.Node) []packet.Node {
					return []packet.Node{route(t, g, 0, []int{0, 1, 2, 3}, 5*sim.Millisecond, sink)}
				},
			}
			g, dynamic, static := c.twins(t)
			if r := runOf(g, 0, 0); r == nil || r.to != int32(mid) || r.delay != 3*sim.Millisecond || r.atWire {
				t.Fatalf("origin's run = %+v, want the 3 ms stretch to edge %d", r, mid)
			}
			r := runOf(g, 3, 0)
			wantDelay, wantAtWire := 7*sim.Millisecond, true
			if kind == "attack" {
				wantDelay, wantAtWire = 4*sim.Millisecond, false
			}
			if r == nil || r.to != deliver || r.delay != wantDelay || r.atWire != wantAtWire {
				t.Fatalf("run behind the %s = %+v, want delay %v to the terminal, atWire %v", kind, r, wantDelay, wantAtWire)
			}
			for _, n := range []int{1, 2, 4} {
				if r := runOf(g, n, 0); r != nil {
					t.Fatalf("node %d holds a run %+v; only stretch starts do", n, r)
				}
			}
			// Hop by hop each packet costs five wire events; fused, two.
			if static >= dynamic {
				t.Fatalf("static run executed %d events, hop-by-hop %d", static, dynamic)
			}
		})
	}
}

// wireImpaired adds a linkless edge with an impairment stage.
func wireImpaired(t *testing.T, g *Graph, from, to int, d sim.Time, imp Impairments) int {
	t.Helper()
	id, err := g.AddEdge(fmt.Sprintf("i%d-%d", from, to), from, to, d, imp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestWireRunPerClassAfterDivergence routes two classes over one link
// edge that then split onto their own wires: each class gets its own
// stretch from the shared edge's exit, with its own delay and line.
func TestWireRunPerClassAfterDivergence(t *testing.T) {
	var shared int
	c := wireRunCase{
		edges: func(t *testing.T, g *Graph) {
			for i := 0; i < 5; i++ {
				g.AddNode(fmt.Sprint("n", i))
			}
			shared = rateEdge(t, g, g.S, 0, 1, 2*sim.Millisecond, Impairments{})
			wire(t, g, 1, 2, 3*sim.Millisecond) // class A
			wire(t, g, 2, 3, 4*sim.Millisecond) // class A
			wire(t, g, 1, 4, 6*sim.Millisecond) // class B
		},
		routes: func(t *testing.T, g *Graph, sink packet.Node) []packet.Node {
			return []packet.Node{
				route(t, g, 0, []int{shared, 1, 2}, 10*sim.Millisecond, sink),
				route(t, g, 1, []int{shared, 3}, 10*sim.Millisecond, sink),
			}
		},
	}
	g, dynamic, static := c.twins(t)
	a, b := runOf(g, 1, 0), runOf(g, 1, 1)
	if a == nil || b == nil || a == b {
		t.Fatalf("classes share run %p / %p; each needs its own", a, b)
	}
	if a.delay != 9*sim.Millisecond || b.delay != 8*sim.Millisecond || !a.atWire || !b.atWire {
		t.Fatalf("runs %+v and %+v, want 9 ms and 8 ms from the shared exit", a, b)
	}
	// 20 packets: 20 sends and 20 link services either way; hop by hop
	// class A crosses 4 wires and class B 3, fused each crosses one run.
	if want := uint64(20 + 20 + 10*4 + 10*3); dynamic != want {
		t.Fatalf("hop-by-hop run executed %d events, want %d", dynamic, want)
	}
	if want := uint64(20 + 20 + 20); static != want {
		t.Fatalf("static run executed %d events, want %d", static, want)
	}
}

// TestWireRunTailsOvertake puts two flows with different access tails on
// one class whose stretch runs to the terminal: the second flow's
// packets, entering 300 µs after the first's, arrive 7.7 ms before them.
// Every one of them overtakes, so the run must send each flow's packets
// on the delay line of its own summed delay, and every packet must
// arrive at its exact instant.
func TestWireRunTailsOvertake(t *testing.T) {
	c := wireRunCase{
		edges: func(t *testing.T, g *Graph) {
			for i := 0; i < 3; i++ {
				g.AddNode(fmt.Sprint("n", i))
			}
			wire(t, g, 0, 1, sim.Millisecond)
			wire(t, g, 1, 2, 2*sim.Millisecond)
		},
		routes: func(t *testing.T, g *Graph, sink packet.Node) []packet.Node {
			return []packet.Node{
				route(t, g, 0, []int{0, 1}, 10*sim.Millisecond, sink),
				route(t, g, 1, []int{0, 1}, 2*sim.Millisecond, sink),
			}
		},
	}
	g, _, static := c.twins(t)
	if g.classOf[0][0] != g.classOf[0][1] {
		t.Fatal("the two flows should share one class")
	}
	_, got, _ := c.run(t, true)
	for _, a := range got {
		tail := 10 * sim.Millisecond
		if a.flow == 1 {
			tail = 2 * sim.Millisecond
		}
		if want := a.sent + 3*sim.Millisecond + tail; a.at != want {
			t.Fatalf("flow %d packet sent at %v arrived at %v, want %v", a.flow, a.sent, a.at, want)
		}
	}
	if want := uint64(20 + 20); static != want {
		t.Fatalf("static run executed %d events, want %d: one per send and one per packet", static, want)
	}
}

// TestWireRunNotOnDynamicGraph pins the hop-by-hop event count of a
// graph that is not static: every wire, the access tail included, is one
// event per packet, exactly as before wire runs existed, and no table
// entry carries a run.
func TestWireRunNotOnDynamicGraph(t *testing.T) {
	c := wireRunCase{
		edges: func(t *testing.T, g *Graph) {
			for i := 0; i < 4; i++ {
				g.AddNode(fmt.Sprint("n", i))
			}
			rateEdge(t, g, g.S, 0, 1, 2*sim.Millisecond, Impairments{})
			wire(t, g, 1, 2, sim.Millisecond)
			wire(t, g, 2, 3, 0)
		},
		routes: func(t *testing.T, g *Graph, sink packet.Node) []packet.Node {
			return []packet.Node{route(t, g, 0, []int{0, 1, 2}, 5*sim.Millisecond, sink)}
		},
	}
	g, _, executed := c.run(t, false)
	// Per packet: its send, the link's service, the link edge's wire,
	// the 1 ms wire and the tail (the zero-delay wire is no event).
	if want := uint64(10 * 5); executed != want {
		t.Fatalf("executed %d events, want %d", executed, want)
	}
	for _, n := range g.nodes {
		for _, h := range n.table {
			if h.run != nil {
				t.Fatalf("node %s holds a run on a graph that is not static", n.Name)
			}
		}
	}
	if _, _, static := c.run(t, true); static != uint64(10*3) {
		t.Fatalf("static twin executed %d events, want %d", static, 10*3)
	}
}

// TestWireRunLoneWireStaysPlain: a stretch of one wire event — a link
// edge's own delay into a junction that forwards onto another link, or a
// bare access tail alone — gets no run, so a chain of links runs exactly
// the events it ran before wire runs existed.
func TestWireRunLoneWireStaysPlain(t *testing.T) {
	c := wireRunCase{
		edges: func(t *testing.T, g *Graph) {
			for i := 0; i < 3; i++ {
				g.AddNode(fmt.Sprint("n", i))
			}
			rateEdge(t, g, g.S, 0, 1, 2*sim.Millisecond, Impairments{})
			rateEdge(t, g, g.S, 1, 2, 0, Impairments{})
		},
		routes: func(t *testing.T, g *Graph, sink packet.Node) []packet.Node {
			return []packet.Node{route(t, g, 0, []int{0, 1}, 5*sim.Millisecond, sink)}
		},
	}
	g, dynamic, static := c.twins(t)
	if static != dynamic {
		t.Fatalf("static run executed %d events, hop-by-hop %d", static, dynamic)
	}
	for _, n := range g.nodes {
		for _, h := range n.table {
			if h.run != nil {
				t.Fatalf("node %s holds a run for a lone wire", n.Name)
			}
		}
	}
}

// TestStaticGraphRefusesForwardingChanges: every call that changes what
// a junction decides panics on a static graph, naming the contract.
func TestStaticGraphRefusesForwardingChanges(t *testing.T) {
	calls := map[string]func(g *Graph, e int){
		"Router.Reroute": func(g *Graph, e int) { _ = g.Router().Reroute(0, false, []int{e}) },
		"Router.RerouteDraining": func(g *Graph, e int) {
			_ = g.Router().RerouteDraining(0, false, []int{e}, sim.Millisecond)
		},
		"Edge.SetDown":       func(g *Graph, e int) { g.Edge(e).SetDown(true) },
		"Edge.SetAttack":     func(g *Graph, e int) { g.Edge(e).SetAttack(&Attack{DropRate: 1, Target: Target{Fraction: 1}}) },
		"Graph.OnLinkChange": func(g *Graph, e int) { g.OnLinkChange(func(*Edge) {}) },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			g := New(sim.New(1))
			a, b := g.AddNode("a"), g.AddNode("b")
			e := wire(t, g, a, b, sim.Millisecond)
			route(t, g, 0, []int{e}, 0, &packet.Sink{})
			call(g, e) // allowed before the declaration
			g = New(sim.New(1))
			a, b = g.AddNode("a"), g.AddNode("b")
			e = wire(t, g, a, b, sim.Millisecond)
			route(t, g, 0, []int{e}, 0, &packet.Sink{})
			g.SetStatic()
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name) || !strings.Contains(msg, "static graph") {
					t.Fatalf("%s on a static graph: panic %q, want one naming the call and the static contract", name, msg)
				}
			}()
			call(g, e)
		})
	}
}

// TestAckFoldWhereAcksReturnDirect: RouteFlow folds a data route's tail
// only when the flow's ACK route is direct, so the receiver's ACKs
// return over a wire; on the wire run to the terminal and on the lone
// tail alike, the folded flow's packets then cost one event each, the
// ACK's, and reach the receiver and return to the sender at the
// instants the unfolded hop-by-hop path gives. A flow whose ACKs cross
// an edge is not folded.
func TestAckFoldWhereAcksReturnDirect(t *testing.T) {
	type trip struct{ at, acked sim.Time }
	run := func(static, direct bool) ([]trip, uint64, bool) {
		s := sim.New(1)
		g := New(s)
		for i := 0; i < 3; i++ {
			g.AddNode(fmt.Sprint("n", i))
		}
		data := []int{wire(t, g, 0, 1, sim.Millisecond), wire(t, g, 1, 2, 2*sim.Millisecond)}
		var ackPath []int
		if !direct {
			ackPath = []int{wire(t, g, 2, 0, 3*sim.Millisecond)}
		}
		if static {
			g.SetStatic()
		}
		var tl packet.Tally
		var trips []trip
		sender := packet.NodeFunc(func(a *packet.Packet) {
			trips[a.Seq].acked = s.Now()
			a.Release()
		})
		ackEntry, err := g.RouteFlow(0, true, ackPath, 5*sim.Millisecond, sender)
		if err != nil {
			t.Fatal(err)
		}
		rcv := netem.NewReceiver(s, 0, ackEntry)
		rcv.OnData = func(now sim.Time, p *packet.Packet) { trips = append(trips, trip{at: now}) }
		entry := route(t, g, 0, data, 4*sim.Millisecond, rcv)
		send(s, &tl, entry, 0, 10)
		s.Run()
		tail, _ := g.routes[keyOf(0, false)].tail.(*netem.Wire)
		return trips, s.Executed(), tail.FoldAcks()
	}
	hop, hopEvents, hopFold := run(false, true)
	stat, statEvents, statFold := run(true, true)
	for i, tr := range hop {
		if want := (trip{sim.Time(i)*sim.Millisecond + 7*sim.Millisecond, sim.Time(i)*sim.Millisecond + 12*sim.Millisecond}); tr != want || stat[i] != want {
			t.Fatalf("packet %d: arrived and acked %v hop by hop, %v on the run; want %v", i, tr, stat[i], want)
		}
	}
	// Hop by hop: a send, two wires and the ACK; on the wire run: a
	// send and the ACK.
	if !hopFold || !statFold || hopEvents != 40 || statEvents != 20 {
		t.Errorf("folded %v/%v with %d/%d events, want true/true with 40/20", hopFold, statFold, hopEvents, statEvents)
	}
	routed, routedEvents, routedFold := run(true, false)
	if want := (trip{7 * sim.Millisecond, 15 * sim.Millisecond}); routedFold || routedEvents != 30 || routed[0] != want {
		t.Errorf("a routed ACK path folded %v in %d events, first trip %v; want false in 30 (a send, the data run and the ACK run), %v",
			routedFold, routedEvents, routed[0], want)
	}
}
