// Route computation: the layer that *decides* routes, so handover and
// flap recovery can be emergent behavior instead of scripted reroute
// timelines. A LinkState is a read-only view of the graph's edges —
// up/down state, which the Graph.OnLinkChange hook reports changing
// (SetDown), and the fixed propagation delays. A Policy computes the
// desired path for a managed (flow, direction) from that view, and an
// AutoRouter coalesces link-state changes over a recompute latency
// (modelling control-plane convergence) before applying policy decisions
// through the exact same Router.Reroute machinery scripted events use —
// emergent and scripted route changes obey one conservation contract.
//
// Two policies ship: ShortestPath recomputes a delay-weighted shortest
// path over the currently-up edges on every change, and KFailover
// precomputes k edge-disjoint backup paths per managed route at Manage
// time and fails over to the first fully-up candidate — the
// RoutingTableManager / route-finder split, with precomputed protection
// in place of an on-demand finder.
package topo

import (
	"fmt"
	"slices"

	"abc/internal/sim"
)

// LinkState is a read-only link-state view of a graph: the adjacency
// (edge ids leaving each node, in id order, for deterministic
// traversal), administrative up/down state and propagation delays.
type LinkState struct {
	g *Graph
	// out[node] lists the edge ids leaving node, ascending.
	out [][]int32
}

// LinkStateOf builds the link-state view of a graph. The topology must
// be complete (all edges added) before the view is built.
func LinkStateOf(g *Graph) *LinkState {
	v := &LinkState{g: g, out: make([][]int32, len(g.nodes))}
	for _, e := range g.edges {
		v.out[e.From.ID] = append(v.out[e.From.ID], int32(e.ID))
	}
	return v
}

// Up reports whether an edge is administratively up.
func (v *LinkState) Up(edge int) bool { return !v.g.edges[edge].down }

// Delay reports an edge's propagation delay.
func (v *LinkState) Delay(edge int) sim.Time { return v.g.edges[edge].Delay }

// ShortestPath computes the lowest-total-propagation-delay path from
// origin to dst over the currently-up edges (Dijkstra; ties broken
// deterministically by scanning nodes and edges in id order, so a run is
// a pure function of the seed and the timeline). It returns nil when no
// up path exists. avoid, when non-nil, excludes edges (the k-failover
// precomputation removes already-used edges to get disjoint backups).
func (v *LinkState) ShortestPath(origin, dst int, avoid map[int]bool, ignoreDown bool) []int {
	const unreached = sim.Time(-1)
	dist := make([]sim.Time, len(v.out))
	via := make([]int32, len(v.out)) // edge that reached the node
	done := make([]bool, len(v.out))
	for i := range dist {
		dist[i], via[i] = unreached, -1
	}
	dist[origin] = 0
	for {
		u := -1
		for i := range dist {
			if done[i] || dist[i] == unreached {
				continue
			}
			if u < 0 || dist[i] < dist[u] {
				u = i
			}
		}
		if u < 0 || u == dst {
			break
		}
		done[u] = true
		for _, eid := range v.out[u] {
			e := v.g.edges[eid]
			if (e.down && !ignoreDown) || avoid[int(eid)] {
				continue
			}
			d := dist[u] + e.Delay
			if t := e.To.ID; dist[t] == unreached || d < dist[t] {
				dist[t], via[t] = d, eid
			}
		}
	}
	if dist[dst] == unreached || origin == dst {
		return nil
	}
	var path []int
	for n := dst; n != origin; {
		eid := via[n]
		path = append(path, int(eid))
		n = v.g.edges[eid].From.ID
	}
	slices.Reverse(path)
	return path
}

// Policy computes routes for managed flows from the link-state view.
type Policy interface {
	// Setup is called once per managed route with its current installed
	// path, letting the policy precompute (k-failover backups).
	Setup(v *LinkState, flow int, ack bool, origin, dst int, current []int) error
	// Route returns the path the flow should use given the current link
	// state, or nil to leave the installed route in place (no live
	// alternative: packets keep draining into the outage and are counted
	// at the downed edge).
	Route(v *LinkState, flow int, ack bool, origin, dst int) []int
}

// ShortestPathPolicy recomputes a delay-weighted shortest path over the
// up edges on every link-state change.
type ShortestPathPolicy struct{}

// Setup implements Policy (stateless).
func (ShortestPathPolicy) Setup(*LinkState, int, bool, int, int, []int) error { return nil }

// Route implements Policy.
func (ShortestPathPolicy) Route(v *LinkState, _ int, _ bool, origin, dst int) []int {
	return v.ShortestPath(origin, dst, nil, false)
}

// KFailoverPolicy precomputes, per managed route, the installed path
// plus up to K edge-disjoint backup paths (successively shorter-first,
// each avoiding every edge of the candidates before it, computed on the
// all-up topology). On a link-state change the route moves to the first
// candidate whose edges are all up — deterministic failover with no
// on-demand search.
type KFailoverPolicy struct {
	// K is the number of precomputed backups (default 2 when zero).
	K int
	// plans holds the candidate lists per managed (flow, direction).
	plans map[hopKey][][]int
}

// Setup implements Policy: precompute the backup candidates.
func (p *KFailoverPolicy) Setup(v *LinkState, flow int, ack bool, origin, dst int, current []int) error {
	k := p.K
	if k <= 0 {
		k = 2
	}
	if p.plans == nil {
		p.plans = make(map[hopKey][][]int)
	}
	plans := [][]int{append([]int(nil), current...)}
	avoid := make(map[int]bool, len(current))
	for _, e := range current {
		avoid[e] = true
	}
	for b := 0; b < k; b++ {
		backup := v.ShortestPath(origin, dst, avoid, true)
		if backup == nil {
			break // the topology holds no further disjoint path
		}
		plans = append(plans, backup)
		for _, e := range backup {
			avoid[e] = true
		}
	}
	if len(plans) == 1 {
		return fmt.Errorf("topo: kfailover: flow %d %s route has no edge-disjoint backup path", flow, dirName(ack))
	}
	p.plans[keyOf(flow, ack)] = plans
	return nil
}

// Route implements Policy: the first fully-up candidate wins.
func (p *KFailoverPolicy) Route(v *LinkState, flow int, ack bool, _, _ int) []int {
	for _, cand := range p.plans[keyOf(flow, ack)] {
		up := true
		for _, e := range cand {
			if !v.Up(e) {
				up = false
				break
			}
		}
		if up {
			return cand
		}
	}
	return nil
}

// AutoRouter subscribes a Policy to the graph's link state and applies
// its decisions to the managed flows through Router.Reroute (or
// RerouteDraining when a make-before-break drain window is set).
// Link-state changes within one recompute latency are coalesced into a
// single recompute — a flap storm triggers one convergence, not one per
// event, and scripted events applied at the same instant are always
// observed atomically.
type AutoRouter struct {
	g       *Graph
	r       *Router
	v       *LinkState
	policy  Policy
	latency sim.Time
	drain   sim.Time
	managed []managedRoute
	pending bool
	// OnChange, when set, observes every applied route change (the new
	// edge ids) — the harness's Result annotations hang off it.
	OnChange func(flow int, ack bool, edges []int)
	// Changes counts applied route changes.
	Changes int
}

type managedRoute struct {
	flow        int
	ack         bool
	origin, dst int
}

// NewAutoRouter builds the route-computation layer for a graph.
// recomputeLatency models control-plane convergence and must be
// positive: it is both the reaction delay after a link-state change and
// the coalescing window for changes that arrive together.
func NewAutoRouter(g *Graph, p Policy, recomputeLatency sim.Time) (*AutoRouter, error) {
	if recomputeLatency <= 0 {
		return nil, fmt.Errorf("topo: autoroute: recompute latency must be positive (got %v)", recomputeLatency)
	}
	a := &AutoRouter{g: g, r: g.Router(), v: LinkStateOf(g), policy: p, latency: recomputeLatency}
	g.OnLinkChange(a.linkChanged)
	return a, nil
}

// SetDrain makes applied route changes make-before-break: the old path
// keeps draining to the receiver for the window (RerouteDraining).
func (a *AutoRouter) SetDrain(d sim.Time) { a.drain = d }

// Manage places one direction of a flow under policy control. The route
// must already be installed and reroutable (table-backed, not a direct
// wire); its origin and destination junctions are fixed here, from the
// installed route.
func (a *AutoRouter) Manage(flow int, ack bool) error {
	g := a.g
	_, rt := g.routeOf(flow, ack)
	if rt == nil {
		return fmt.Errorf("topo: autoroute: flow %d has no %s route", flow, dirName(ack))
	}
	if rt.origin < 0 {
		return fmt.Errorf("topo: autoroute: flow %d %s route is a direct wire (nothing to recompute)", flow, dirName(ack))
	}
	for _, m := range a.managed {
		if m.flow == flow && m.ack == ack {
			return fmt.Errorf("topo: autoroute: flow %d %s route managed twice", flow, dirName(ack))
		}
	}
	dst := g.edges[rt.edges[len(rt.edges)-1]].To.ID
	if err := a.policy.Setup(a.v, flow, ack, rt.origin, dst, rt.edges); err != nil {
		return err
	}
	a.managed = append(a.managed, managedRoute{flow: flow, ack: ack, origin: rt.origin, dst: dst})
	return nil
}

// linkChanged is the OnLinkChange subscriber: arm one recompute per
// convergence window.
func (a *AutoRouter) linkChanged(*Edge) {
	if a.pending {
		return
	}
	a.pending = true
	a.g.S.After(a.latency, a.recompute)
}

// recompute applies the policy to every managed route, in Manage order.
func (a *AutoRouter) recompute() {
	a.pending = false
	for _, m := range a.managed {
		cur, _ := a.g.RouteOf(m.flow, m.ack)
		want := a.policy.Route(a.v, m.flow, m.ack, m.origin, m.dst)
		if want == nil || slices.Equal(cur, want) {
			continue
		}
		var err error
		if a.drain > 0 {
			err = a.r.RerouteDraining(m.flow, m.ack, want, a.drain)
		} else {
			err = a.r.Reroute(m.flow, m.ack, want)
		}
		if err != nil {
			// A policy route that fails validation is a policy bug; the
			// installed route stays, which is the safe outcome mid-run.
			continue
		}
		a.Changes++
		if a.OnChange != nil {
			a.OnChange(m.flow, m.ack, want)
		}
	}
}
