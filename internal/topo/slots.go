// Route slots: a routed flow's forwarding state lives in a slot that
// the flow takes with its first route and gives back when it is
// unrouted, for the next flow routed. Packets carry their flow's slot
// (packet.Slot), stamped where they enter their route, so a junction
// finds its class without a table indexed by flow id, and the graph's
// per-flow state is bounded by the most flows routed at once, not by
// the flows a run has routed.
package topo

import "abc/internal/packet"

// routeSlot is what the graph reads of a routed flow per packet: the
// FIB class and the delivery element — what a class's end-of-route
// sentinel dereferences to — of each direction (index 0 data, 1 ACK).
// A packet's flow is checked against flow, so a packet of a flow that
// has been unrouted, whose slot may carry another flow since, is an
// unrouted drop.
type routeSlot struct {
	// flow owns the slot; -1 while the slot is free.
	flow int
	// class is -1 in a direction with no table-backed route. tail is
	// the per-flow access-latency wire when the route has one, else the
	// terminal itself; a reroute moves it to the new last node.
	class [2]int32
	tail  [2]packet.Node
	// routes is the rest of the slot, which no packet reads.
	routes *slotRoutes
}

// slotRoutes is what only route changes and the lazy links' set-up read
// of a slot: the route registry and the slot's entry. It is kept out of
// routeSlot so that the slots a packet's path reads stay small and
// dense, and it never moves, since callers hold the entry.
type slotRoutes struct {
	// entry is where the flow's traffic enters its table-backed routes.
	entry entry
	route [2]routeState
}

// entry is the injection point RouteFlow returns for a table-backed
// route: it stamps a packet with its flow's slot and hands it to the
// route's origin junction, per direction. One entry is made per slot
// and serves each flow the slot carries.
type entry struct {
	slot   int32
	origin [2]*Node
}

// Recv implements packet.Node.
func (e *entry) Recv(p *packet.Packet) {
	p.Slot = e.slot
	e.origin[dirOf(p)].Recv(p)
}

// dirIndex is a route direction's index: 0 for data, 1 for ACKs.
func dirIndex(ack bool) int {
	if ack {
		return 1
	}
	return 0
}

// slotOf returns the slot p carries if it belongs to p's flow, else nil.
func (g *Graph) slotOf(p *packet.Packet) *routeSlot {
	if i := uint(p.Slot); i < uint(len(g.slots)) {
		if s := &g.slots[i]; s.flow == p.Flow {
			return s
		}
	}
	return nil
}

// routeOf returns a flow's slot and the registry entry of its route in
// one direction, or nils when that direction has no route. The pointers
// are good until the next slot is taken.
func (g *Graph) routeOf(flow int, ack bool) (*routeSlot, *routeState) {
	if id, ok := g.findSlot(flow); ok {
		s := &g.slots[id]
		if rt := &s.routes.route[dirIndex(ack)]; rt.routed {
			return s, rt
		}
	}
	return nil, nil
}

// takeSlot gives flow a free slot: the last one put back, or a new one
// at the end of the table. A new slot's slotRoutes is carved from a
// block as long as the table, so that they cost a handful of
// allocations however many slots the table grows to.
func (g *Graph) takeSlot(flow int) int32 {
	var id int32
	if n := len(g.freeSlots); n > 0 {
		id = g.freeSlots[n-1]
		g.freeSlots = g.freeSlots[:n-1]
	} else {
		if len(g.spareRoutes) == 0 {
			g.spareRoutes = make([]slotRoutes, max(2, len(g.slots)))
		}
		id = int32(len(g.slots))
		r := &g.spareRoutes[0]
		g.spareRoutes, r.entry.slot = g.spareRoutes[1:], id
		g.slots = append(g.slots, routeSlot{routes: r})
	}
	s := &g.slots[id]
	s.flow, s.class = flow, [2]int32{-1, -1}
	g.indexSlot(id)
	return id
}

// freeSlot empties slot id, keeping its entry, and puts it back.
func (g *Graph) freeSlot(id int32) {
	g.unindexSlot(id)
	r := g.slots[id].routes
	r.route = [2]routeState{}
	g.slots[id] = routeSlot{flow: -1, routes: r}
	g.freeSlots = append(g.freeSlots, id)
}

// Slots reports how many route slots flows hold now, and how many the
// table holds: the most flows the graph has had routed at once.
func (g *Graph) Slots() (held, table int) {
	return len(g.slots) - len(g.freeSlots), len(g.slots)
}

// The index finds a flow's slot by flow id: an open-addressing table of
// slot ids (-1 empty) with linear probing, a power of two long and at
// most half full. A removal shifts the entries behind it back rather
// than leaving a tombstone, so the table never fills with the flows a
// run has unrouted: it grows only with the flows routed at once. (A Go
// map churned this way keeps growing, since it reclaims the room of
// deleted keys only by growing.)

// home is flow's first probe position.
func (g *Graph) home(flow int) int {
	return int(uint64(flow)*0x9E3779B97F4A7C15>>32) & (len(g.index) - 1)
}

// position returns where flow's slot is in the index, or -1.
func (g *Graph) position(flow int) int {
	if len(g.index) == 0 {
		return -1
	}
	mask := len(g.index) - 1
	for i := g.home(flow); ; i = (i + 1) & mask {
		switch id := g.index[i]; {
		case id < 0:
			return -1
		case g.slots[id].flow == flow:
			return i
		}
	}
}

// findSlot returns the slot flow holds, if it holds one.
func (g *Graph) findSlot(flow int) (int32, bool) {
	if i := g.position(flow); i >= 0 {
		return g.index[i], true
	}
	return 0, false
}

// indexSlot adds slot id, whose flow is set, to the index, doubling
// the index first if it would be more than half full.
func (g *Graph) indexSlot(id int32) {
	if held, _ := g.Slots(); 2*held > len(g.index) {
		old := g.index
		g.index = make([]int32, max(8, 2*len(old)))
		for i := range g.index {
			g.index[i] = -1
		}
		for _, o := range old {
			if o >= 0 {
				g.place(o)
			}
		}
	}
	g.place(id)
}

// place puts slot id at the first empty position from its flow's home.
func (g *Graph) place(id int32) {
	mask := len(g.index) - 1
	i := g.home(g.slots[id].flow)
	for g.index[i] >= 0 {
		i = (i + 1) & mask
	}
	g.index[i] = id
}

// unindexSlot removes slot id, whose flow is still set, from the index.
// Each entry in the run behind the hole whose home is not between the
// hole and itself moves back into the hole, which leaves the entry's
// place as the new hole.
func (g *Graph) unindexSlot(id int32) {
	mask := len(g.index) - 1
	hole := g.position(g.slots[id].flow)
	for j := (hole + 1) & mask; g.index[j] >= 0; j = (j + 1) & mask {
		if k := g.home(g.slots[g.index[j]].flow); (j-k)&mask >= (j-hole)&mask {
			g.index[hole] = g.index[j]
			hole = j
		}
	}
	g.index[hole] = -1
}
