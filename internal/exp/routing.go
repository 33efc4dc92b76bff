// Spec plumbing for the route-computation layer (internal/topo's
// AutoRouter): policy construction and the Result annotations for
// emergent route changes (validateRouting is in validate.go). The layer is
// opt-in per Spec; scripted `events` timelines are untouched by it
// unless a Routing clause is present, so existing specs run
// byte-identically.
package exp

import (
	"abc/internal/sim"
	"abc/internal/topo"
)

// RoutingSpec enables policy-driven route computation: the policy
// watches link state (link_down / link_up events) and recomputes every
// flow's routes through the same Router machinery scripted reroute events
// use. Each flow has its data route and, when table-backed, its ACK route
// placed under policy control.
type RoutingSpec struct {
	// Policy picks the route-computation policy: "shortest" (default;
	// delay-weighted shortest path over the up edges, recomputed per
	// link-state change) or "kfailover" (K edge-disjoint backup paths
	// precomputed per managed route; failover to the first fully-up
	// candidate).
	Policy string `spec:"policy"`
	// K is the number of precomputed backups for "kfailover" (default
	// 2). Setting K with Policy "shortest" is a Spec error — it would
	// otherwise be silently ignored.
	K int `spec:"k"`
	// RecomputeLatency models control-plane convergence: the delay
	// between a link-state change and routes actually moving, and the
	// coalescing window for changes that arrive together. Defaults to
	// 10ms; must not be negative.
	RecomputeLatency sim.Time `spec:"recompute_ms"`
	// Drain, when positive, makes every policy-applied route change
	// make-before-break: junctions on the abandoned path keep forwarding
	// the flow's in-flight packets to the receiver for this window.
	Drain sim.Time `spec:"drain_ms"`
}

// RouteChangeResult annotates one emergent route change, in execution
// order — the policy-driven counterpart of EventResult.
type RouteChangeResult struct {
	AtMs float64  `json:"at_ms"`
	Flow int      `json:"flow"`
	Ack  bool     `json:"ack,omitempty"`
	Path []string `json:"path"`
}

// defaultRecomputeLatency is the control-plane convergence delay when
// the Routing clause leaves RecomputeLatency zero.
const defaultRecomputeLatency = 10 * sim.Millisecond

// startRouting builds the route-computation layer for a compiled spec:
// policy, AutoRouter, Result annotation hook, and management of each
// flow's data route plus its ACK route when that route is
// table-backed (chain flows without ReverseLinks ACK over a direct wire,
// which has no junctions to re-decide). Called after flows are wired and
// before the run starts; validate has already accepted the clause.
func (c *compiled) startRouting() error {
	g, spec, res := c.g, c.spec, c.res
	rs := spec.Routing
	if rs == nil {
		return nil
	}
	var pol topo.Policy
	switch rs.Policy {
	case "", "shortest":
		pol = topo.ShortestPathPolicy{}
	default:
		pol = &topo.KFailoverPolicy{K: rs.K}
	}
	lat := rs.RecomputeLatency
	if lat == 0 {
		lat = defaultRecomputeLatency
	}
	ar, err := topo.NewAutoRouter(g, pol, lat)
	if err != nil {
		return err
	}
	if rs.Drain > 0 {
		ar.SetDrain(rs.Drain)
	}
	ar.OnChange = func(flow int, ack bool, edges []int) {
		path := make([]string, len(edges))
		for i, e := range edges {
			path[i] = g.Edge(e).Name
		}
		res.RouteChanges = append(res.RouteChanges, RouteChangeResult{
			AtMs: g.S.Now().Millis(), Flow: flow, Ack: ack, Path: path,
		})
	}
	for f := range spec.Flows {
		if err := ar.Manage(f, false); err != nil {
			return err
		}
		if ackEdges, ok := g.RouteOf(f, true); ok && len(ackEdges) > 0 {
			if err := ar.Manage(f, true); err != nil {
				return err
			}
		}
	}
	return nil
}
