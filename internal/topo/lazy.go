// Lazy link service on a static graph: a rate link whose packets all
// leave over a bare stretch schedules each packet's arrival at the far
// end of that stretch as it starts the packet's transmission, and no
// event for the transmission itself (netem.RateLink.ServeLazily).
package topo

import (
	"fmt"
	"slices"

	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/sim"
)

// lazyOut resolves the handoff of a packet leaving a lazily served
// edge: by the packet's route class where its stretch ends at the next
// edge, by its flow where it ends at the flow's receiver, whose tail
// may differ between the flows of one class. class[c-class0] is route
// class c's handoff and flow[f-flow0] flow f's; a zero Handoff is none.
// The tables span only the classes and flows that cross the edge, from
// class0 and flow0 to class1 and flow1.
type lazyOut struct {
	g                            *Graph
	e                            *Edge
	class, flow                  []netem.Handoff
	class0, class1, flow0, flow1 int
	// arrive and due are the delays every handoff of the edge shares
	// (netem.Handoff.Delays), once one is resolved (due >= 0); bad
	// marks an edge found not to qualify.
	arrive, due sim.Time
	bad         bool
}

// Handoff implements netem.Stretch.
func (o *lazyOut) Handoff(p *packet.Packet) *netem.Handoff {
	if c := int(o.g.classOf[dirOf(p)][p.Flow]) - o.class0; c >= 0 && c < len(o.class) && o.class[c] != (netem.Handoff{}) {
		return &o.class[c]
	}
	if f := p.Flow - o.flow0; !p.IsAck && f >= 0 && f < len(o.flow) && o.flow[f] != (netem.Handoff{}) {
		return &o.flow[f]
	}
	panic(fmt.Sprintf("topo: flow %d reached lazily served edge %q, which was set up before the flow was routed", p.Flow, o.e.Name))
}

// ServeLazily makes the rate links of the edges ids serve their queues
// lazily (netem.RateLink.Lazy reports which did). An
// edge's link does when the graph is static and, for every route
// installed over the edge, the stretch behind the link is bare and ends
// at the next edge's queue — an edge with a link and no impairment or
// attack — or, on a data route, at a receiver whose tail wire folds the
// ACK's return; and when every such handoff has the same delays
// (netem.Handoff.Delays). Call it once every flow is routed: a route
// installed over a lazy edge later panics at its first packet. The
// caller vouches for the link's own side (constant positive rate, no
// fluid background, a discipline that draws no randomness at dequeue).
func (g *Graph) ServeLazily(ids []int) {
	if !g.static || len(ids) == 0 {
		return
	}
	outs := make([]lazyOut, len(ids))
	for i, id := range ids {
		outs[i] = lazyOut{g: g, e: g.edges[id], class0: len(g.classes), flow0: len(g.classOf[0]), due: -1}
	}
	// The first pass spans each edge's tables, so that one allocation
	// holds the handoffs of every edge; the second fills them.
	n := 0
	for key, rt := range g.routes {
		for j, eid := range rt.edges {
			if i := slices.Index(ids, eid); i >= 0 {
				o := &outs[i]
				if g.endsAtTerminal(rt, j) {
					o.flow0, o.flow1 = min(o.flow0, int(key>>1)), max(o.flow1, int(key>>1)+1)
				} else {
					o.class0, o.class1 = min(o.class0, int(rt.class)), max(o.class1, int(rt.class)+1)
				}
			}
		}
	}
	for i := range outs {
		n += max(outs[i].class1-outs[i].class0, 0) + max(outs[i].flow1-outs[i].flow0, 0)
	}
	hs := make([]netem.Handoff, n)
	for i := range outs {
		o := &outs[i]
		k := max(o.class1-o.class0, 0)
		o.class, hs = hs[:k:k], hs[k:]
		k = max(o.flow1-o.flow0, 0)
		o.flow, hs = hs[:k:k], hs[k:]
	}
	for key, rt := range g.routes {
		for j, eid := range rt.edges {
			i := slices.Index(ids, eid)
			if i < 0 {
				continue
			}
			o := &outs[i]
			h, ok := g.handoff(o.e, rt, j, key&1 == 1)
			a, u := h.Delays()
			if !ok || o.due >= 0 && (a != o.arrive || u != o.due) {
				o.bad = true
			}
			o.arrive, o.due = a, u
			if g.endsAtTerminal(rt, j) {
				o.flow[int(key>>1)-o.flow0] = h
			} else {
				o.class[int(rt.class)-o.class0] = h
			}
		}
	}
	for i := range outs {
		if o := &outs[i]; !o.bad && o.due >= 0 {
			o.e.Link.(*netem.RateLink).ServeLazily(o)
		}
	}
}

// endsAtTerminal reports whether the stretch behind the j-th edge of rt
// runs bare to the route's end.
func (g *Graph) endsAtTerminal(rt routeState, j int) bool {
	return !slices.ContainsFunc(rt.edges[j+1:], func(eid int) bool { return !g.edges[eid].bare() })
}

// handoff resolves the handoff behind edge e, the j-th of route rt, and
// reports whether the stretch qualifies (see ServeLazily).
func (g *Graph) handoff(e *Edge, rt routeState, j int, ack bool) (netem.Handoff, bool) {
	l, ok := e.Link.(*netem.RateLink)
	if !ok {
		return netem.Handoff{}, false
	}
	d, k := e.Delay, j+1
	for ; k < len(rt.edges) && g.edges[rt.edges[k]].bare(); k++ {
		d += g.edges[rt.edges[k]].Delay
	}
	if k < len(rt.edges) {
		next := g.edges[rt.edges[k]]
		return l.Handoff(d, next), next.Link != nil && !next.impaired && next.attack == nil
	}
	w, ok := rt.tail.(*netem.Wire)
	if !ok || ack {
		return netem.Handoff{}, false
	}
	h := l.Handoff(d, w)
	return h, h.Folds()
}
