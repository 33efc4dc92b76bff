// The spec compiler. Both Spec notations reduce to one plan — named
// junctions, named directed edges between them (each carrying a full
// LinkSpec, or Kind "wire" for a pure propagation hop), and one resolved
// data/ACK edge route per flow and workload — and one back end builds
// the topology graph from it. This file holds the plan, the mesh
// notation's front end (meshPlan; the chain's is lowerChain in lower.go)
// and that back end (build).
//
// Because ACK paths are real routes over real edges, a reverse edge can
// host an ABC router or a marking qdisc, and the accel/brake echo a
// receiver stamps onto its ACKs (packet.NewAck) is subject to demotion
// there exactly like forward-path data marks — the sender ends up pacing
// to the minimum of marks over the whole round trip.
//
// One rule decides validity: translate, validate, build — a Spec is
// valid iff it builds (see harness.go). Each stage rejects what it alone
// can see: Spec.validate the graph-independent ranges, a front end what
// only its notation can get wrong (names, endpoints, spans, an ACK path
// that does not start where the data path ends), the back end here what
// holds for any plan — link and qdisc configuration per edge, and every
// route against the built graph (topo.Graph.CheckPath: non-contiguous
// sequences and routes that revisit a junction).
package exp

import (
	"fmt"
	"slices"

	"abc/internal/abc"
	"abc/internal/qdisc"
	"abc/internal/topo"
)

// plan is what a Spec of either notation compiles to before anything is
// built. Junction i becomes node id i of the graph and edge i edge id i.
type plan struct {
	nodes []string
	edges []planEdge
	// edgeID addresses edges by name, for event timelines and
	// backgrounds.
	edgeID map[string]int
	// routes and wroutes are the resolved routes of Spec.Flows and
	// Spec.Workloads, by index.
	routes, wroutes []flowRoute
	// links is len(Spec.Links) for a lowered chain and 0 for a mesh. A
	// chain measures utilization against its forward links only, and
	// reports its disciplines as Result.Qdiscs (edges[:links]) and
	// ReverseQdiscs (the rest) instead of by edge name.
	links int
}

// planEdge is one directed edge of a plan, between junction indices.
type planEdge struct {
	name     string
	from, to int
	link     *LinkSpec
}

// routeFields are the routing fields a FlowSpec and a WorkloadSpec share,
// with the owner's kind ("flow", "workload") and index for errors.
type routeFields struct {
	kind            string
	i               int
	dir             Direction
	enterAt, exitAt int
	path, ackPath   []string
}

// resolveRoutes fills the plan's routes by passing every flow's and
// workload's routing fields through the notation's route function.
func (p *plan) resolveRoutes(spec *Spec, route func(routeFields) (flowRoute, error)) (err error) {
	p.routes = make([]flowRoute, len(spec.Flows))
	for i := range spec.Flows {
		fs := &spec.Flows[i]
		p.routes[i], err = route(routeFields{"flow", i, fs.Dir, fs.EnterAt, fs.ExitAt, fs.Path, fs.AckPath})
		if err != nil {
			return err
		}
	}
	p.wroutes = make([]flowRoute, len(spec.Workloads))
	for i := range spec.Workloads {
		ws := &spec.Workloads[i]
		p.wroutes[i], err = route(routeFields{"workload", i, ws.Dir, ws.EnterAt, ws.ExitAt, ws.Path, ws.AckPath})
		if err != nil {
			return err
		}
	}
	return nil
}

// autoScheme is the one rule for an "auto" qdisc on edge e, whichever
// notation the edge came from: the scheme of the first flow, else the
// first workload, whose data route crosses it; else of the first whose
// ACK route does — a reverse-path router serves the flows whose echoes
// it carries. Nothing crossing the edge yields "" (droptail).
func (p *plan) autoScheme(spec *Spec, e int) string {
	for _, ack := range []bool{false, true} {
		for f, r := range p.routes {
			if slices.Contains(r.dir(ack), e) {
				return spec.Flows[f].Scheme
			}
		}
		for w, r := range p.wroutes {
			if slices.Contains(r.dir(ack), e) {
				return spec.Workloads[w].Scheme
			}
		}
	}
	return ""
}

// meshPlan validates a mesh-notation Spec and resolves its names.
func meshPlan(spec *Spec) (*plan, error) {
	if len(spec.Links) > 0 || len(spec.ReverseLinks) > 0 {
		return nil, fmt.Errorf("exp: Links/ReverseLinks (chain) and Nodes/Edges (mesh) are mutually exclusive")
	}
	if len(spec.Nodes) == 0 {
		return nil, fmt.Errorf("exp: mesh spec has edges but no nodes")
	}
	if len(spec.Edges) == 0 {
		return nil, fmt.Errorf("exp: mesh spec has nodes but no edges")
	}
	p := &plan{
		nodes:  spec.Nodes,
		edges:  make([]planEdge, len(spec.Edges)),
		edgeID: make(map[string]int, len(spec.Edges)),
	}
	nodeID := make(map[string]int, len(spec.Nodes))
	for i, name := range spec.Nodes {
		if name == "" {
			return nil, fmt.Errorf("exp: empty node name")
		}
		if _, dup := nodeID[name]; dup {
			return nil, fmt.Errorf("exp: duplicate node %q", name)
		}
		nodeID[name] = i
	}
	for i := range spec.Edges {
		es := &spec.Edges[i]
		if es.Name == "" {
			return nil, fmt.Errorf("exp: edges[%d]: missing name", i)
		}
		if _, dup := p.edgeID[es.Name]; dup {
			return nil, fmt.Errorf("exp: duplicate edge %q", es.Name)
		}
		from, ok := nodeID[es.From]
		if !ok {
			return nil, fmt.Errorf("exp: edge %q: unknown node %q", es.Name, es.From)
		}
		to, ok := nodeID[es.To]
		if !ok {
			return nil, fmt.Errorf("exp: edge %q: unknown node %q", es.Name, es.To)
		}
		p.edges[i] = planEdge{name: es.Name, from: from, to: to, link: &es.Link}
		p.edgeID[es.Name] = i
	}

	return p, p.resolveRoutes(spec, p.meshRoute)
}

// meshRoute resolves one data/ACK path pair over named edges. A
// non-empty ACK route must pick up where the data route ends: ACKs are
// generated by the receiver at the data path's terminal node, so a
// disconnected AckPath would teleport them. The ACK route may end
// anywhere, though — it models the congested or marked segment of the
// return journey, and whatever remains after its last edge is the same
// implicit lossless wire an empty AckPath uses for the whole reverse
// path (RouteFlow's tail delay carries the residual RTT).
func (p *plan) meshRoute(rf routeFields) (flowRoute, error) {
	if rf.dir != Forward || rf.enterAt != 0 || rf.exitAt != 0 {
		return flowRoute{}, fmt.Errorf("exp: %s %d: Dir/EnterAt/ExitAt are chain fields; mesh %ss route via Path/AckPath", rf.kind, rf.i, rf.kind)
	}
	if len(rf.path) == 0 {
		return flowRoute{}, fmt.Errorf("exp: %s %d: mesh flows need a Path", rf.kind, rf.i)
	}
	data, err := p.resolve(rf, rf.path, "path")
	if err != nil {
		return flowRoute{}, err
	}
	ack, err := p.resolve(rf, rf.ackPath, "ack path")
	if err != nil {
		return flowRoute{}, err
	}
	if len(ack) > 0 {
		recv, first := p.edges[data[len(data)-1]].to, p.edges[ack[0]].from
		if first != recv {
			return flowRoute{}, fmt.Errorf("exp: %s %d: ack path starts at node %q but data path ends at %q",
				rf.kind, rf.i, p.nodes[first], p.nodes[recv])
		}
	}
	return flowRoute{data: data, ack: ack}, nil
}

// resolve maps a sequence of edge names to edge ids.
func (p *plan) resolve(rf routeFields, names []string, what string) ([]int, error) {
	if len(names) == 0 {
		return nil, nil
	}
	ids := make([]int, len(names))
	for j, name := range names {
		id, ok := p.edgeID[name]
		if !ok {
			return nil, fmt.Errorf("exp: %s %d %s: unknown edge %q", rf.kind, rf.i, what, name)
		}
		ids[j] = id
	}
	return ids, nil
}

// build adds the plan's junctions and edges to the graph — each
// bottleneck and its discipline scheduling on the simulator of the
// junction feeding it — fills the Result's qdisc views, and checks every
// route against the finished graph. A graph that no timeline event and
// no routing policy can change is declared static, so its routes cross
// their bare stretches as wire runs (topo.Graph.SetStatic).
func (c *compiled) build() error {
	p, g, spec, res := c.p, c.g, c.spec, c.res
	for _, name := range p.nodes {
		g.AddNode(name)
	}
	c.edgeQ = make([]qdisc.Qdisc, len(p.edges))
	if p.links == 0 {
		res.EdgeQdiscs = make(map[string]qdisc.Qdisc, len(p.edges))
	}
	for i := range p.edges {
		e := &p.edges[i]
		ls := e.link
		var mk topo.LinkFactory
		if ls.wire() {
			if ls.Trace != nil || ls.Rate != 0 || ls.Wifi != nil || ls.Lookahead != 0 {
				return fmt.Errorf("exp: edge %q: wire edges carry no bottleneck model", e.name)
			}
			if ls.Qdisc != (QdiscSpec{}) {
				return fmt.Errorf("exp: edge %q: wire edges have no qdisc", e.name)
			}
		} else {
			qd, err := ls.Qdisc.build(p.autoScheme(spec, i), g.S)
			if err != nil {
				return fmt.Errorf("exp: edge %q: %v", e.name, err)
			}
			mk, err = linkFactory(g.S, ls, qd)
			if err != nil {
				return fmt.Errorf("exp: edge %q: %v", e.name, err)
			}
			c.edgeQ[i] = qd
			switch {
			case p.links == 0:
				res.EdgeQdiscs[e.name] = qd
				res.Qdiscs = append(res.Qdiscs, qd)
			case i < p.links:
				res.Qdiscs = append(res.Qdiscs, qd)
			default:
				res.ReverseQdiscs = append(res.ReverseQdiscs, qd)
			}
		}
		id, err := g.AddEdge(e.name, e.from, e.to, ls.Delay, ls.Impair, mk)
		if err != nil {
			return err
		}
		if ls.Attack != nil {
			if err := ls.Attack.Validate(); err != nil {
				return fmt.Errorf("exp: edge %q: %v", e.name, err)
			}
			g.Edge(id).SetAttack(ls.Attack)
		}
	}
	for i, r := range p.routes {
		if err := checkRoute(g, r, "flow", i); err != nil {
			return err
		}
	}
	for i, r := range p.wroutes {
		if err := checkRoute(g, r, "workload", i); err != nil {
			return err
		}
	}
	if len(spec.Events) == 0 && spec.Routing == nil {
		g.SetStatic()
	}
	return nil
}

// checkRoute validates both directions of one resolved route.
func checkRoute(g *topo.Graph, r flowRoute, kind string, i int) error {
	if err := g.CheckPath(r.data); err != nil {
		return fmt.Errorf("exp: %s %d path %v", kind, i, err)
	}
	if err := g.CheckPath(r.ack); err != nil {
		return fmt.Errorf("exp: %s %d ack path %v", kind, i, err)
	}
	return nil
}

// serveLazily decides, once, which rate links serve their queues lazily
// (netem.RateLink.ServeLazily): a packet's arrival at the far end of the
// bare stretch behind the link is then its only event. A link qualifies
// when its graph is a static mesh (a chain never is), its rate is
// positive and no timeline touches it, no fluid background shares it,
// its discipline draws no randomness at dequeue (an ABC router that
// lies does), no workload's route crosses it — a spawned flow's route
// is installed mid-run — and the graph finds every declared flow's
// stretch behind it bare, ending at the next queue or at a receiver
// that folds the ACK's return, one fixed delay long (topo.Graph.ServeLazily).
func (c *compiled) serveLazily() {
	p, spec := c.p, c.spec
	if p.links > 0 || len(spec.Events) > 0 || spec.Routing != nil {
		return
	}
	var buf [64]int // a run of up to 64 edges asks without allocating
	ids := buf[:0]
	for i := range p.edges {
		e := &p.edges[i]
		if e.link.model() != "rate" || e.link.Rate <= 0 ||
			slices.ContainsFunc(spec.Background, func(bs BackgroundSpec) bool { return bs.Edge == e.name }) {
			continue
		}
		if r, ok := c.edgeQ[i].(*abc.Router); ok && r.Cfg.LieFraction > 0 {
			continue
		}
		if slices.ContainsFunc(p.wroutes, func(r flowRoute) bool {
			return slices.Contains(r.data, i) || slices.Contains(r.ack, i)
		}) {
			continue
		}
		ids = append(ids, i)
	}
	c.g.ServeLazily(ids)
}
