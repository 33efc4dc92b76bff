// Package topo models an experiment's network as a directed graph of
// nodes and links with explicit per-flow routes. A node is a junction
// that forwards packets by table lookup; an edge is one hop — an optional
// bottleneck link (trace-driven, rate-driven or Wi-Fi modelled), an
// optional impairment stage (jitter, random or bursty loss) and a
// propagation delay, fixed when the edge is added. A flow's data path and
// its ACK path are both routes over such edges, so reverse-path
// bottlenecks, asymmetric delays and cross traffic entering or leaving
// mid-path are all expressible without bespoke wiring.
//
// Forwarding is a per-node decision: every node owns a forwarding table
// keyed by route class — flows whose route, direction included, is the
// same edge sequence share a class — whose entries name either the next
// edge of the route or the terminal delivery element (the receiver for
// data, the sender endpoint for ACKs). A packet finds its flow's class
// and terminal through the route slot stamped on it where it entered its
// route (RouteFlow); a slot is recycled once its flow is unrouted, so the
// graph's per-flow state is bounded by the flows routed at once
// (slots.go). Because the decision is made at run time rather than wired
// into a fixed chain at build time, routes can change mid-run: Router
// atomically swaps a flow's table entries while packets are in flight
// (see router.go for the conservation contract).
//
// A graph whose forwarding never changes during the run is declared
// static (SetStatic). Then only the junctions that a link, an impairment
// or an attack separates make a decision: a packet crosses each maximal
// run of bare edges — propagation delay only — and the flow's access
// tail in one scheduled arrival, and the junctions inside that run are
// skipped (run.go). Everything else — and every junction of a graph that
// is not static — decides hop by hop as above.
//
// The graph adds no events of its own: table lookup and the edge gate are
// synchronous, so a chain of edges behaves (and schedules) exactly like
// the manually wired element chains it replaces, and a wire run schedules
// one arrival where the wires it fuses would have scheduled one each.
// Misrouted packets — a flow arriving at a node with no table
// entry for it — are dropped as packet.Unrouted, not silently released;
// that entry of the packet books (packet.Tally) is the first thing to
// check when a new topology misbehaves (after a mid-run reroute a
// non-zero count is expected: packets in flight on abandoned edges drain
// to the next junction and are dropped there). Every other drop on the
// graph — a downed edge, an attack, an impairment — is likewise one
// packet.Drop with its cause, booked on the packet's flow; the graph
// itself counts no drops.
package topo

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"abc/internal/netem"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// Link is a bottleneck element on an edge. netem.TraceLink, netem.RateLink
// and wifi.Link all satisfy it through the netem.Port they embed, which
// also makes each of them an obs.Sink.
type Link interface {
	packet.Node
	// DeliveredBytes reports total bytes the link has handed downstream.
	DeliveredBytes() int64
}

// LinkFactory builds an edge's link with its downstream destination
// already wired (links in this codebase take their destination at
// construction). A nil factory makes the edge a pure propagation hop.
type LinkFactory func(dst packet.Node) (Link, error)

// hopKey addresses one direction of one flow, flow<<1 | ack: a flow's
// data packets and its ACKs are routed independently, so a data route
// and an ACK route may share junctions. Forwarding tables are keyed by
// FIB class and the route registry lives in the flow's route slot; the
// key survives in the per-flow override maps (make-before-break
// draining). One integer, so a lookup hashes a word, not a padded
// struct.
type hopKey uint64

// keyOf returns the hopKey of one direction of a flow.
func keyOf(flow int, ack bool) hopKey {
	k := hopKey(flow) << 1
	if ack {
		k |= 1
	}
	return k
}

// hop is one forwarding-table entry: edge >= 0 forwards onto that edge;
// deliver ends the route and delivers through the arriving flow's own
// access tail — the sentinel that lets flows with different receivers
// and RTTs share one aggregated class entry; noRoute fills a table slot
// whose class has no entry at the node. On a static graph, run is the
// class's wire run that starts at this junction, or at the delay wire
// leading into it (nil when none does).
type hop struct {
	edge int32
	run  *run
}

const (
	deliver int32 = -1
	noRoute int32 = -2
)

// tableStart is a forwarding table's first capacity, in classes.
const tableStart = 8

// Node is a junction: packets arriving here are forwarded by a FIB class
// lookup — flows whose route (direction and exact edge sequence) is
// identical share a single table entry — to the next edge of the class's
// route, or delivered through the flow's own tail at the route's end.
type Node struct {
	ID   int
	Name string
	g    *Graph
	// table is the forwarding table, indexed by FIB class id (ids are
	// dense: the registry recycles them); Router mutates it mid-run.
	table []hop
	// override holds per-flow exceptions consulted before the class
	// table; nil in steady state. Make-before-break reroutes install the
	// old route's hops here for the drain window, so in-flight packets
	// keep draining to the receiver while new packets take the new path.
	override map[hopKey]hop
}

// Recv implements packet.Node: one forwarding decision. The fast path is
// two slice indexes — the packet's slot, then its class's entry — and
// allocation-free (BenchmarkFIBLookup pins 0 allocs/op).
func (n *Node) Recv(p *packet.Packet) {
	dir := dirOf(p)
	s := n.g.slotOf(p)
	if s == nil {
		n.g.unrouted(n.ID, p)
		return
	}
	if n.override != nil {
		if h, ok := n.override[keyOf(p.Flow, p.IsAck)]; ok {
			n.forward(h, dir, s, p)
			return
		}
	}
	h := n.classHop(dir, s)
	if h.edge == noRoute {
		n.g.unrouted(n.ID, p)
		return
	}
	n.forward(h, dir, s, p)
}

// unrouted drops p at node: p's flow has no route in p's direction
// there, or no route at all — a packet that outlived its flow's route,
// or one stranded by a reroute. The drop is booked so that wiring bugs
// and stranded packets are both visible.
func (g *Graph) unrouted(node int, p *packet.Packet) {
	if g.rec.Enabled(obs.CatPacket) {
		g.rec.Emit(int64(g.S.Now()), obs.EvUnroutedDrop, int32(node), int32(p.Flow), 0, 0)
	}
	p.Drop(packet.Unrouted)
}

// dirOf is p's route direction: 0 for data, 1 for ACKs.
func dirOf(p *packet.Packet) int { return dirIndex(p.IsAck) }

// classHop returns n's table entry for the class in direction dir of
// the flow whose slot is s, or a noRoute entry when it has none here (or
// s is nil: the packet's flow is not routed).
func (n *Node) classHop(dir int, s *routeSlot) hop {
	if s != nil {
		if cls := s.class[dir]; cls >= 0 && int(cls) < len(n.table) {
			return n.table[cls]
		}
	}
	return hop{edge: noRoute}
}

// forward executes one resolved table entry (see hop for the shapes) for
// p, whose flow's slot is s.
func (n *Node) forward(h hop, dir int, s *routeSlot, p *packet.Packet) {
	if n.g.rec.Enabled(obs.CatHop) {
		n.g.rec.Emit(n.nowNS(), obs.EvHop, int32(n.ID), int32(p.Flow), int64(h.edge), 0)
	}
	if r := h.run; r != nil && !r.atWire {
		r.enter(s.tail[dir], p)
		return
	}
	if h.edge >= 0 {
		n.g.edges[h.edge].Recv(p)
		return
	}
	s.tail[dir].Recv(p)
}

// Edge is one directed hop between two nodes.
type Edge struct {
	ID int
	// Name identifies the edge in event timelines and, crucially, seeds
	// its private RNG streams: impairment and attack randomness derive
	// from (simulator seed, edge name), so adding or reordering unrelated
	// edges never reshuffles this edge's loss pattern.
	Name     string
	From, To *Node
	// Delay is the hop's propagation delay, applied after the link.
	Delay sim.Time
	// Link is the edge's bottleneck element (nil for pure delay hops).
	Link Link
	// AdvDelayed / AdvStripped count the installed attack's actions that
	// do not end a packet: targeted extra-delay deferrals and accel marks
	// demoted by mark-stripping (adversary.go). Its discards are drops,
	// booked as packet.Adversary.
	AdvDelayed  int64
	AdvStripped int64

	g *Graph
	// head is the first element of the edge's chain:
	// impairments → link → delay wire → To.
	head packet.Node
	// wire is the delay wire (nil when Delay is 0). impaired records an
	// impairment stage; an edge with one or a link hands the wire its
	// packets through the edge's exit, where a wire run can start.
	wire     *netem.Wire
	impaired bool
	// attack is the installed adversary stage (nil = honest edge); advRng
	// is its private RNG, created on first install and kept across
	// retunes so an event timeline swapping attacks stays deterministic.
	attack *Attack
	advRng *rand.Rand
	// down gates the edge: while set, arriving packets are dropped as
	// packet.LinkDown. Packets already inside the chain (queued in the
	// qdisc, in flight on the wire) still drain.
	down bool
}

// Recv implements packet.Node: the edge's entry, applying the up/down
// gate, then the attack stage, then the impairment/link/delay chain.
func (e *Edge) Recv(p *packet.Packet) {
	if e.down {
		if e.g.rec.Enabled(obs.CatPacket) {
			e.g.rec.Emit(int64(e.g.S.Now()), obs.EvDownDrop, int32(e.ID), int32(p.Flow), 0, 0)
		}
		p.Drop(packet.LinkDown)
		return
	}
	if e.attack != nil && !e.applyAttack(p) {
		return // dropped or deferred by the attack stage
	}
	e.head.Recv(p)
}

// SetDown takes the edge down (true) or back up (false). While down,
// packets arriving at the edge are dropped as packet.LinkDown;
// packets already queued or in flight on the edge still drain — an
// outage severs the hop, it does not vaporize its buffer. State changes
// notify the graph's link-state watchers (OnLinkChange).
func (e *Edge) SetDown(down bool) {
	e.g.mustBeDynamic("Edge.SetDown")
	changed := e.down != down
	e.down = down
	if changed {
		if e.g.rec.Enabled(obs.CatLink) {
			k := obs.EvLinkUp
			if down {
				k = obs.EvLinkDown
			}
			e.g.rec.Emit(int64(e.g.S.Now()), k, int32(e.ID), -1, 0, 0)
		}
		e.g.notifyLinkChange(e)
	}
}

// Down reports whether the edge is administratively down.
func (e *Edge) Down() bool { return e.down }

// OnLinkChange subscribes fn to link-state changes: it is called from
// SetDown on actual up/down transitions, with the affected edge.
// Route-computation policies hang off this hook, so a static graph
// refuses a subscriber.
func (g *Graph) OnLinkChange(fn func(*Edge)) {
	g.mustBeDynamic("Graph.OnLinkChange")
	g.watchers = append(g.watchers, fn)
}

func (g *Graph) notifyLinkChange(e *Edge) {
	for _, w := range g.watchers {
		w(e)
	}
}

// SetBackground couples a fluid background aggregate into the edge's
// service loop: the link (and, via its forwarding, a background-aware
// qdisc such as the ABC router) starts accounting for the aggregate's
// occupancy and service share. Wire edges and link models without
// background-aware service loops are rejected loudly — a background
// that silently did nothing would be a measurement bug.
func (e *Edge) SetBackground(bg qdisc.Background) error {
	if e.Link == nil {
		return fmt.Errorf("topo: edge %q is a pure delay hop; a background needs a bottleneck link", e.Name)
	}
	ba, ok := e.Link.(qdisc.BackgroundAware)
	if !ok {
		return fmt.Errorf("topo: edge %q: link model %T does not support fluid backgrounds", e.Name, e.Link)
	}
	ba.SetBackground(bg)
	return nil
}

// routeState records one installed direction of a flow's route, in the
// flow's route slot, so Router can atomically swap it later. Its FIB
// class and delivery element are the slot's, where the junctions read
// them.
type routeState struct {
	// routed is set while the direction has a route.
	routed bool
	edges  []int
	// origin is the node the route's traffic is injected at (the first
	// edge's tail), or -1 for direct routes (no edges: the terminal is
	// wired straight to the producer and nothing is reroutable).
	origin int
	// overNodes lists the junctions currently holding a make-before-
	// break override for this route's key; overGen guards the scheduled
	// cleanup against a newer reroute having replaced the overrides.
	overNodes []*Node
	overGen   int
}

// fibClass is one aggregated forwarding class: every flow whose route
// (direction plus exact edge sequence) is identical shares the class's
// table entries, so table size scales with the number of distinct routes
// rather than the number of flows. Delivery at the route's end goes
// through the arriving flow's own tail (routeSlot.tail), which is what
// lets flows with different receivers and access latencies share a
// class.
type fibClass struct {
	// key is the class's classByRoute key (classKey), kept so attach
	// and detach churn never rebuilds it.
	key   string
	edges []int
	// refs counts the flows attached to the class; the last detach
	// uninstalls its table entries and recycles the id.
	refs int
}

// Graph is the topology under construction and, once flows are routed,
// the running network.
type Graph struct {
	// S is the simulator every element of the graph schedules on.
	S *sim.Simulator
	// coord runs S in windows for a caller that hangs a timeline or
	// observers on the run (see Coordinator).
	coord *sim.Coordinator
	nodes []*Node
	edges []*Edge
	// classes is the FIB class registry; classByRoute deduplicates
	// classes by (direction, exact edge sequence) and freeClasses
	// recycles ids of fully-detached classes.
	classes      []fibClass
	classByRoute map[string]int32
	freeClasses  []int32
	// slots holds the routed flows' forwarding state, one slot per
	// flow, indexed by the slot a packet carries (packet.Slot): a
	// slice, not a map, so the per-packet lookup is a bounds-checked
	// index. RouteFlow takes a slot from freeSlots, or appends one, and
	// UnrouteFlow puts it back; index finds a flow's slot by flow id,
	// and spareRoutes is what is left of the block new slots' route
	// registries are carved from (slots.go). They hold as many slots as
	// the most flows routed at once, however many flows the run routes.
	slots       []routeSlot
	freeSlots   []int32
	index       []int32
	spareRoutes []slotRoutes
	// spareWires are the access-latency wires of unrouted flows, which
	// RouteFlow hands to the next routes it builds (see UnrouteFlow).
	spareWires []*netem.Wire
	// watchers are the link-state subscribers (route-computation
	// policies): every SetDown that flips the state notifies them.
	watchers []func(*Edge)
	// rec is the attached flight recorder (nil = tracing off). All trace
	// points guard on rec.Enabled, which is nil-safe, so the disabled
	// path costs one pointer test on the per-packet paths.
	rec *obs.Recorder
	// arena is the run's packet arena (see Arena).
	arena packet.Arena
	// static is set by SetStatic: forwarding never changes again, and
	// route classes cross their bare stretches as wire runs.
	static bool
}

// SetStatic declares that the graph's forwarding never changes again
// during the run: no reroute, no edge taken down or up, no attack
// installed or cleared, no link-state subscriber. From then on every
// route class installed crosses each maximal bare stretch of its route
// in one scheduled arrival (run.go), and Router.Reroute,
// Router.RerouteDraining, Edge.SetDown, Edge.SetAttack and
// Graph.OnLinkChange panic: a packet on a wire run would silently skip
// the junction decisions such a call changes. A caller declares a graph
// static once its edges, attacks and initial link states are in place,
// before it routes flows.
func (g *Graph) SetStatic() { g.static = true }

// mustBeDynamic panics if the graph is static: call is about to change
// what a junction decides.
func (g *Graph) mustBeDynamic(call string) {
	if g.static {
		panic(fmt.Sprintf("topo: %s on a static graph: SetStatic promised that forwarding never changes during the run, and packets on a wire run skip the junctions that would see the change", call))
	}
}

// SetRecorder attaches a flight recorder to the graph: junctions and
// edges emit trace events into it, and every link
// (and its qdisc) that implements obs.Sink is wired with its edge id as
// the event source. Edges added after the call are wired by AddEdge.
// Tracing is passive — it never schedules events, draws randomness or
// mutates simulation state — so enabling it cannot change a run.
func (g *Graph) SetRecorder(rec *obs.Recorder) {
	g.rec = rec
	for _, e := range g.edges {
		e.wireObs()
	}
}

// Recorder returns the attached flight recorder (nil when tracing is
// off).
func (g *Graph) Recorder() *obs.Recorder { return g.rec }

// wireObs hands the graph recorder to the edge's link if that can carry
// one (a netem.Port forwards it to its qdisc, a dual queue to its ABC
// child), under the edge id. The edge's own stages emit through g.rec.
func (e *Edge) wireObs() {
	if s, ok := e.Link.(obs.Sink); ok {
		s.SetObs(e.g.rec, int32(e.ID))
	}
}

// nowNS reads the clock; only trace points pay for it, inside an
// Enabled guard.
func (n *Node) nowNS() int64 { return int64(n.g.S.Now()) }

// New returns an empty graph on s, which the caller runs, by hand or
// through the graph's Coordinator.
func New(s *sim.Simulator) *Graph {
	return &Graph{S: s, coord: sim.NewCoordinator(s),
		classByRoute: make(map[string]int32)}
}

// Arena returns the graph's packet arena, for the tallies of the flows
// it carries (packet.Tally.UseArena).
func (g *Graph) Arena() *packet.Arena { return &g.arena }

// Sharded reports false: a graph runs on one simulator. Kept for bench/;
// deleted with mesh_shard2.
func (g *Graph) Sharded() bool { return false }

// Coordinator returns the coordinator that runs the graph's simulator.
func (g *Graph) Coordinator() *sim.Coordinator { return g.coord }

// AddNode adds a junction and returns its id.
func (g *Graph) AddNode(name string) int {
	n := &Node{ID: len(g.nodes), Name: name, g: g}
	g.nodes = append(g.nodes, n)
	return n.ID
}

// Node returns the node with the given id.
func (g *Graph) Node(id int) *Node { return g.nodes[id] }

// AddEdge adds a directed hop named name from one node to another and
// returns its edge id. The link factory (which may be nil) is invoked
// immediately with the edge's tail — the delay wire when Delay is
// positive, otherwise the destination node — as its destination.
// Impairments, when non-zero, are applied before the link (arriving
// traffic is impaired, then queued) and draw from a per-edge RNG seeded
// by (simulator seed, name): the loss/jitter pattern an edge
// sees is a pure function of its own name and the run seed, never of
// how many other edges exist or what traffic they carry. Names should
// be unique per graph — two edges sharing one would also share their
// random pattern, not their RNG state.
func (g *Graph) AddEdge(name string, from, to int, delay sim.Time, imp Impairments, mk LinkFactory) (int, error) {
	if from < 0 || from >= len(g.nodes) || to < 0 || to >= len(g.nodes) {
		return 0, fmt.Errorf("topo: AddEdge(%d → %d) references unknown node", from, to)
	}
	e := &Edge{ID: len(g.edges), Name: name, From: g.nodes[from], To: g.nodes[to], Delay: delay, g: g,
		impaired: !imp.zero()}
	var tail packet.Node = e.To
	if delay > 0 {
		e.wire = netem.NewWire(g.S, delay, tail)
		tail = e.wire
		if mk != nil || e.impaired { // see hasExit
			tail = (*exit)(e)
		}
	}
	if mk != nil {
		l, err := mk(tail)
		if err != nil {
			return 0, err
		}
		e.Link = l
		tail = l
	}
	if e.impaired {
		tail = imp.build(e, tail)
	}
	e.head = tail
	g.edges = append(g.edges, e)
	if g.rec != nil {
		e.wireObs()
	}
	return e.ID, nil
}

// rand returns a fresh RNG for one of the edge's random stages, seeded
// from (simulator seed, edge name, salt). Distinct salts give the
// impairment and attack stages independent streams, so installing an
// attack mid-run does not perturb the edge's impairment pattern.
func (e *Edge) rand(salt string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(e.Name))
	h.Write([]byte{0})
	h.Write([]byte(salt))
	return rand.New(rand.NewSource(e.g.S.Seed() ^ int64(h.Sum64())))
}

// Edge returns the edge with the given id.
func (g *Graph) Edge(id int) *Edge { return g.edges[id] }

// Edges returns the number of edges in the graph.
func (g *Graph) Edges() int { return len(g.edges) }

// CheckPath verifies that an edge sequence is a well-formed route over
// the graph: every id names an existing edge, consecutive edges are
// contiguous (each starts at the node the previous one ends at), and the
// route never revisits a node it started at or already passed through —
// a forwarding table maps each (flow, direction) to exactly one next
// hop, so a looping route could never be installed. Spec compilers call
// it to reject malformed mesh routes before any wiring happens. A route
// is a handful of edges, so a revisit is found by scanning the nodes
// already passed, which allocates nothing.
func (g *Graph) CheckPath(edges []int) error {
	for i, id := range edges {
		if id < 0 || id >= len(g.edges) {
			return fmt.Errorf("references unknown edge %d", id)
		}
		e := g.edges[id]
		if i > 0 && e.From != g.edges[edges[i-1]].To {
			return fmt.Errorf("not contiguous: edge %d starts at %q, previous ends at %q",
				id, e.From.Name, g.edges[edges[i-1]].To.Name)
		}
		// The nodes passed are the origin, which is edges[0]'s tail, and
		// every earlier edge's head.
		if e.To == g.edges[edges[0]].From {
			return fmt.Errorf("loops back over node %q", e.To.Name)
		}
		for _, prev := range edges[:i] {
			if g.edges[prev].To == e.To {
				return fmt.Errorf("loops back over node %q", e.To.Name)
			}
		}
	}
	return nil
}

// classKey appends the canonical form of a (direction, edge sequence)
// pair — the class dedup map's key — to b. Only route installs, reroutes
// and teardowns pay for it, never the per-packet path.
func classKey(b []byte, ack bool, edges []int) []byte {
	if ack {
		b = append(b, 1)
	}
	for _, e := range edges {
		b = append(b, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
	}
	return b
}

// newClassID returns a recycled or fresh class id with the given state.
func (g *Graph) newClassID(c fibClass) int32 {
	if n := len(g.freeClasses); n > 0 {
		id := g.freeClasses[n-1]
		g.freeClasses = g.freeClasses[:n-1]
		g.classes[id] = c
		return id
	}
	g.classes = append(g.classes, c)
	return int32(len(g.classes) - 1)
}

// attachClass binds one more flow to the class for (ack, edges),
// creating the class — and installing its table entries — when this is
// the first flow routed over that exact sequence. The key is built in a
// stack buffer, so joining an existing class allocates nothing.
func (g *Graph) attachClass(ack bool, edges []int) int32 {
	var buf [64]byte
	b := classKey(buf[:0], ack, edges)
	if id, ok := g.classByRoute[string(b)]; ok {
		g.classes[id].refs++
		g.traceClass(obs.EvClassAttach, id, g.classes[id].refs)
		return id
	}
	key := string(b)
	id := g.newClassID(fibClass{key: key, edges: append([]int(nil), edges...), refs: 1})
	g.classByRoute[key] = id
	g.installClass(id, edges)
	g.traceClass(obs.EvClassAttach, id, 1)
	return id
}

// traceClass emits a route-class refcount event (attach/detach).
func (g *Graph) traceClass(k obs.Kind, id int32, refs int) {
	if g.rec.Enabled(obs.CatRoute) {
		g.rec.Emit(int64(g.S.Now()), k, id, -1, int64(refs), 0)
	}
}

// detachClass unbinds one flow from a class; the last detach removes the
// class's table entries and recycles its id.
func (g *Graph) detachClass(id int32) {
	c := &g.classes[id]
	c.refs--
	g.traceClass(obs.EvClassDetach, id, c.refs)
	if c.refs > 0 {
		return
	}
	g.uninstallClass(id, c.edges)
	delete(g.classByRoute, c.key)
	g.classes[id] = fibClass{}
	g.freeClasses = append(g.freeClasses, id)
}

// installClass writes the class's table entries: the origin forwards
// onto the first edge, each intermediate node onto the next edge, and
// the last node carries the end-of-route sentinel (delivery through the
// arriving flow's own tail). On a static graph the entries also carry
// the class's wire runs.
func (g *Graph) installClass(id int32, edges []int) {
	g.edges[edges[0]].From.setHop(id, int32(edges[0]))
	for i, eid := range edges {
		next := deliver
		if i < len(edges)-1 {
			next = int32(edges[i+1])
		}
		g.edges[eid].To.setHop(id, next)
	}
	if g.static {
		g.installRuns(id, edges)
	}
}

// uninstallClass removes the class's table entries.
func (g *Graph) uninstallClass(id int32, edges []int) {
	g.edges[edges[0]].From.setHop(id, noRoute)
	for _, eid := range edges {
		g.edges[eid].To.setHop(id, noRoute)
	}
}

// setHop writes class id's entry at n, growing the table as ids appear.
// A table starts with room for tableStart classes, so a junction on a
// handful of routes allocates its table once.
func (n *Node) setHop(id, edge int32) {
	if n.table == nil {
		n.table = make([]hop, 0, tableStart)
	}
	for int(id) >= len(n.table) {
		n.table = append(n.table, hop{edge: noRoute})
	}
	n.table[id] = hop{edge: edge}
}

// RouteFlow installs one direction of a flow's route along the given
// edge sequence and terminates it at terminal (the flow's receiver for
// data routes — ack false — and its sender endpoint for ACK routes — ack
// true). tailDelay, when positive, inserts a final per-flow propagation
// hop — the flow's access latency — between the last node and the
// terminal. It returns the element the route's traffic must be injected
// into: the entry to the route's origin node, which stamps each packet
// with the flow's route slot, so that every hop including the first is a
// forwarding-table decision (and hence reroutable). The flow takes a
// slot with its first route and keeps it until UnrouteFlow.
//
// The edges must satisfy CheckPath, and the (flow, direction) pair must
// not already be routed at any node along the way — each table maps it
// to exactly one next hop. An empty edge sequence wires the terminal
// (behind its tailDelay) directly; such direct routes bypass the tables
// and cannot be rerouted.
//
// A data route's tail wire folds the ACK's return into the data's
// arrival (netem.Wire.FoldAcks) when its terminal is a netem.Receiver
// whose Out is a wire: the flow's ACK route is direct. Route the ACKs
// and set the receiver's Out first; the fold is resolved here, once.
func (g *Graph) RouteFlow(flow int, ack bool, edges []int, tailDelay sim.Time, terminal packet.Node) (packet.Node, error) {
	dir := dirIndex(ack)
	id, held := g.findSlot(flow)
	if held && g.slots[id].routes.route[dir].routed {
		return nil, fmt.Errorf("topo: flow %d %s route installed twice", flow, dirName(ack))
	}
	if err := g.CheckPath(edges); err != nil {
		return nil, fmt.Errorf("topo: flow %d route %v", flow, err)
	}
	if !held {
		id = g.takeSlot(flow)
	}
	s := &g.slots[id]
	s.tail[dir] = terminal
	if tailDelay > 0 {
		w := g.wire(tailDelay, terminal)
		if !ack {
			w.FoldAcks()
		}
		s.tail[dir] = w
	}
	rt := &s.routes.route[dir]
	*rt = routeState{routed: true, origin: -1}
	if len(edges) == 0 {
		return s.tail[dir], nil
	}
	s.class[dir] = g.attachClass(ack, edges)
	origin := g.edges[edges[0]].From
	in := &s.routes.entry
	in.origin[dir] = origin
	rt.edges, rt.origin = edges, origin.ID
	return in, nil
}

// wire returns an access-latency wire: a spare one if UnrouteFlow left
// any, else a new one.
func (g *Graph) wire(delay sim.Time, dst packet.Node) *netem.Wire {
	n := len(g.spareWires)
	if n == 0 {
		return netem.NewWire(g.S, delay, dst)
	}
	w := g.spareWires[n-1]
	g.spareWires = g.spareWires[:n-1]
	*w = netem.Wire{S: g.S, Delay: delay, Dst: dst}
	return w
}

// UnrouteFlow is routeFlow's inverse for both directions of a flow:
// each leaves its FIB class (the last flow off a class uninstalls the
// class's table entries, as a reroute does) and drops any draining
// overrides, and the flow's route slot goes back to the free list, for
// the next flow routed. The graph keeps nothing of the flow afterwards:
// its tail wires go to a spare list that the next routes built reuse,
// and its terminals are the caller's to reuse or drop. A packet of the
// flow that still arrives at a junction, or at the end of a wire run, is
// an unrouted drop, since the slot it carries no longer names its flow;
// but one still on a tail wire, or injected into what a direct route
// (no edges) returned, would reach the terminal of whichever flow reuses
// the wire. So a caller unroutes a flow only once its last packet is
// released (packet.Tally), and injects nothing of it afterwards.
func (g *Graph) UnrouteFlow(flow int) error {
	id, ok := g.findSlot(flow)
	if !ok {
		return fmt.Errorf("topo: flow %d has no route to remove", flow)
	}
	s := &g.slots[id]
	for dir := range s.routes.route {
		rt := &s.routes.route[dir]
		if !rt.routed {
			continue
		}
		clearOverrides(keyOf(flow, dir == 1), rt)
		if s.class[dir] >= 0 {
			g.detachClass(s.class[dir])
		}
		if w, ok := s.tail[dir].(*netem.Wire); ok {
			g.spareWires = append(g.spareWires, w)
		}
	}
	g.freeSlot(id)
	return nil
}

// RouteOf reports the edge sequence currently installed for one
// direction of a flow, and whether such a route exists. The returned
// slice must not be mutated.
func (g *Graph) RouteOf(flow int, ack bool) ([]int, bool) {
	if _, rt := g.routeOf(flow, ack); rt != nil {
		return rt.edges, true
	}
	return nil, false
}

// dirName names a route direction in errors.
func dirName(ack bool) string {
	if ack {
		return "ack"
	}
	return "data"
}

// AdversaryDelayed sums packets deferred by attack extra-delay stages
// across all edges.
func (g *Graph) AdversaryDelayed() int64 {
	var n int64
	for _, e := range g.edges {
		n += e.AdvDelayed
	}
	return n
}

// AdversaryStripped sums accel marks demoted by mark-stripping attacks
// across all edges.
func (g *Graph) AdversaryStripped() int64 {
	var n int64
	for _, e := range g.edges {
		n += e.AdvStripped
	}
	return n
}
