// Router: mid-run mutation of the graph's forwarding state. The
// simulator is single-threaded and forwarding is synchronous, so a
// table swap between two events is atomic with respect to every packet:
// a packet either sees the old tables at every hop of its current
// junction decision or the new ones — never a half-installed route.
//
// Conservation contract. A reroute only rewrites table entries; it never
// touches packets. Packets in flight on an abandoned edge keep draining
// through its impairment/link/delay chain and arrive at the edge's head
// node, where the next table lookup decides their fate: nodes shared
// with the new route forward them along it, nodes off the new route
// drop them as packet.Unrouted. Nothing is duplicated and nothing
// vanishes silently — every packet ends exactly once, delivered or
// dropped under one cause on its flow's books, which the harness's
// conservation property test asserts over randomized event timelines
// and its audit after every run.
package topo

import (
	"fmt"
	"slices"

	"abc/internal/obs"
	"abc/internal/sim"
)

// Router mutates a running graph's forwarding tables. Obtain one with
// Graph.Router; all methods must be called from simulator context (event
// callbacks or before the run starts).
type Router struct {
	g *Graph
}

// Router returns the mutation handle for the graph.
func (g *Graph) Router() *Router { return &Router{g: g} }

// CheckReroute validates a prospective Reroute without mutating
// anything, so Spec compilers can reject a malformed event timeline
// before the run starts: the flow must have a reroutable (table-backed)
// route in that direction, the new edges must form a well-formed path,
// and the path must start at the route's origin — the sender (or, for
// ACK routes, the receiver) keeps injecting at the same junction, only
// the junctions' decisions change.
func (r *Router) CheckReroute(flow int, ack bool, edges []int) error {
	g := r.g
	key := keyOf(flow, ack)
	rt, ok := g.routes[key]
	if !ok {
		return fmt.Errorf("topo: reroute: flow %d has no %s route", flow, dirName(ack))
	}
	if rt.origin < 0 {
		return fmt.Errorf("topo: reroute: flow %d %s route is a direct wire (no junctions to re-decide)", flow, dirName(ack))
	}
	if len(edges) == 0 {
		return fmt.Errorf("topo: reroute: flow %d: empty route", flow)
	}
	if err := g.CheckPath(edges); err != nil {
		return fmt.Errorf("topo: reroute: flow %d route %v", flow, err)
	}
	if from := g.edges[edges[0]].From; from.ID != rt.origin {
		return fmt.Errorf("topo: reroute: flow %d %s route must start at its origin %q, not %q",
			flow, dirName(ack), g.nodes[rt.origin].Name, from.Name)
	}
	return nil
}

// Reroute atomically swaps one direction of a flow's route onto a new
// edge sequence: the flow detaches from its old FIB class (the last flow
// off a class removes its table entries) and attaches to the class for
// the new sequence, all in a single synchronous step, with the route's
// terminal (and its access-latency tail) re-attached at the new route's
// last node. See the package comment for what happens to packets in
// flight.
func (r *Router) Reroute(flow int, ack bool, edges []int) error {
	r.g.mustBeDynamic("Router.Reroute")
	return r.reroute(flow, ack, edges, 0)
}

// RerouteDraining is the make-before-break Reroute: new packets take the
// new route immediately, but for the drain window the junctions of the
// old route that are off the new one keep forwarding this flow's
// in-flight packets along the old path — all the way to the receiver —
// through per-flow override entries. When the window closes the
// overrides are removed and any stragglers are dropped as unrouted at
// their next junction, so the conservation contract (delivered + drops
// by cause = sent) holds throughout.
func (r *Router) RerouteDraining(flow int, ack bool, edges []int, drain sim.Time) error {
	r.g.mustBeDynamic("Router.RerouteDraining")
	if drain <= 0 {
		return fmt.Errorf("topo: reroute: flow %d: drain window must be positive", flow)
	}
	return r.reroute(flow, ack, edges, drain)
}

func (r *Router) reroute(flow int, ack bool, edges []int, drain sim.Time) error {
	if err := r.CheckReroute(flow, ack, edges); err != nil {
		return err
	}
	g := r.g
	key := keyOf(flow, ack)
	rt := g.routes[key]
	// A newer reroute supersedes any overrides still draining from the
	// previous one; stragglers on that abandoned path fall back to the
	// ordinary counted-drop contract.
	clearOverrides(key, &rt)
	old := rt.edges
	rt.edges = append([]int(nil), edges...)
	if drain > 0 {
		installOverrides(g, key, &rt, old)
	}
	g.detachClass(rt.class)
	rt.class = g.attachClass(ack, rt.edges)
	g.setFlowClass(flow, ack, rt.class)
	g.routes[key] = rt
	if g.rec.Enabled(obs.CatRoute) {
		var draining int64
		if drain > 0 {
			draining = 1
		}
		g.rec.Emit(int64(g.S.Now()), obs.EvReroute, rt.class, int32(flow), draining, int64(len(edges)))
	}
	if drain > 0 {
		gen := rt.overGen
		g.S.After(drain, func() {
			cur, ok := g.routes[key]
			if !ok || cur.overGen != gen {
				return // a newer reroute already replaced these overrides
			}
			clearOverrides(key, &cur)
			g.routes[key] = cur
		})
	}
	return nil
}

// installOverrides writes the make-before-break exceptions: every node
// of the old route that is not on the new one keeps its old decision for
// this flow, so in-flight packets drain to the receiver instead of being
// dropped at the first off-route junction. Nodes shared with the new
// route need no override — the class entry already forwards toward the
// receiver. The route's origin is on both routes by construction, so new
// packets are never diverted. A route is a handful of edges, so a node
// is looked up on the new route by scanning it, which allocates nothing
// (as CheckPath does).
func installOverrides(g *Graph, key hopKey, rt *routeState, old []int) {
	for i, eid := range old {
		n := g.edges[eid].To
		if slices.ContainsFunc(rt.edges, func(e int) bool { return g.edges[e].To == n }) {
			continue
		}
		h := hop{edge: deliver} // end of the old route: the flow's own tail
		if i < len(old)-1 {
			h = hop{edge: int32(old[i+1])}
		}
		if n.override == nil {
			n.override = make(map[hopKey]hop)
		}
		n.override[key] = h
		rt.overNodes = append(rt.overNodes, n)
	}
	rt.overGen++
}

// clearOverrides removes a route's draining overrides, if any.
func clearOverrides(key hopKey, rt *routeState) {
	for _, n := range rt.overNodes {
		delete(n.override, key)
		if len(n.override) == 0 {
			n.override = nil
		}
	}
	rt.overNodes = nil
}
