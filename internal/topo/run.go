// Wire runs: on a static graph (SetStatic) a packet crosses each maximal
// bare stretch of its route class in one scheduled arrival.
//
// An edge is bare when a packet crossing it meets nothing but its
// propagation delay: no link, no impairment, no attack, no down gate. A
// bare stretch is the part of a route between two decisions that matter:
// it starts at the delay wire behind a link or an impairment (the edge's
// exit) or at a junction's forward — the route's origin, or the head of a
// non-bare edge that has no exit — and runs through bare edges and the
// junctions between them up to the next non-bare edge, or to the terminal
// through the arriving flow's own access tail. On a static graph none of
// those junctions can decide differently while a packet is on the
// stretch, so the packet is scheduled once, at the summed delay, and
// handed straight to what the stretch's last junction would have handed
// it to. A stretch that would cost a single wire event anyway stays that
// plain netem.Wire.
//
// Fusion ignores tracing: a traced run executes the same events as an
// untraced one. Its one visible effect is that the junctions inside a
// stretch decide nothing, so they emit no obs.EvHop.
package topo

import (
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/sim"
)

// run is one fused bare stretch of one route class, hung off the class's
// table entry at the junction where the stretch starts or that its first
// wire leads into.
type run struct {
	g *Graph
	// delay is the stretch's summed propagation delay. A stretch to the
	// terminal adds the arriving flow's access-tail delay per packet.
	delay sim.Time
	// to is the edge the stretch hands its packets to, or deliver.
	to int32
	// atWire marks a stretch entered at the exit of the edge leading into
	// its junction, rather than at the junction's forward; delay then
	// includes that edge's wire.
	atWire bool
	// line is the simulator's delay line for the delay of the last event
	// the stretch scheduled: its own delay, plus the flow's tail on a
	// stretch to the terminal, plus the ACK's return when the tail folds
	// it. Flows of one class with different tails take different lines,
	// so none overtakes another's packets on one.
	line sim.Line
}

// enter puts p on the stretch. A stretch to the terminal ends in the
// flow's tail wire, which carries p the whole way (netem.Wire.Carry): the
// wire folds the ACK's return into the arrival where the flow's ACKs
// return directly, as it does for a packet that crosses it alone.
func (r *run) enter(p *packet.Packet) {
	if r.to == deliver {
		if w, ok := r.g.tails[dirOf(p)][p.Flow].(*netem.Wire); ok {
			w.Carry(p, r.delay, &r.line)
			return
		}
	}
	if !r.line.Is(r.g.S, r.delay) {
		r.line = r.g.S.Line(r.delay)
	}
	r.line.AfterArgs(runArrive, r, p)
}

// runArrive is the static arrival callback: p reaches the stretch's far
// end, the next edge or the flow's terminal, which has no tail wire.
func runArrive(a, b any) {
	r, p := a.(*run), b.(*packet.Packet)
	if r.to >= 0 {
		r.g.edges[r.to].Recv(p)
		return
	}
	r.g.tails[dirOf(p)][p.Flow].Recv(p)
}

// exit is an edge's delay wire as the link or impairment stage in front
// of it sees it (AddEdge): on a static graph, a packet whose class has a
// stretch starting here enters that run; any other packet takes the
// wire.
type exit Edge

// Recv implements packet.Node.
func (x *exit) Recv(p *packet.Packet) {
	e := (*Edge)(x)
	if e.g.static {
		if r := e.To.classHop(dirOf(p), p).run; r != nil && r.atWire {
			r.enter(p)
			return
		}
	}
	e.wire.Recv(p)
}

// hasExit reports whether the edge's wire is fed through its exit.
func (e *Edge) hasExit() bool { return e.wire != nil && (e.Link != nil || e.impaired) }

// bare reports whether a packet crossing the edge meets only its
// propagation delay.
func (e *Edge) bare() bool {
	return e.Link == nil && !e.impaired && e.attack == nil && !e.down
}

// installRuns hangs the class's wire runs off its table entries. A
// stretch starts at the origin's forward and behind every non-bare edge:
// at the edge's exit when it has one (its entry is then the table entry
// of the junction the exit's wire leads into), else at that junction's
// forward. Only a stretch of two or more wire events — the access tail
// counts as one — becomes a run. The class's runs share one slice,
// sized once for the most the route can hold.
func (g *Graph) installRuns(id int32, edges []int) {
	var runs []run
	for i := -1; i < len(edges); i++ {
		r := run{g: g, to: deliver}
		wires := 0
		var n *Node
		if i < 0 {
			n = g.edges[edges[0]].From
		} else {
			e := g.edges[edges[i]]
			if e.bare() {
				continue // inside a stretch, or a lone wire
			}
			n = e.To
			if e.hasExit() {
				r.delay, r.atWire, wires = e.Delay, true, 1
			}
		}
		j := i + 1
		for ; j < len(edges) && g.edges[edges[j]].bare(); j++ {
			if d := g.edges[edges[j]].Delay; d > 0 {
				r.delay += d
				wires++
			}
		}
		if j < len(edges) {
			r.to = int32(edges[j])
		} else {
			wires++ // the access tail
		}
		if wires < 2 {
			continue
		}
		if runs == nil {
			runs = make([]run, 0, len(edges)-i) // one start per edge left, at most
		}
		runs = append(runs, r)
		n.table[id].run = &runs[len(runs)-1]
	}
}
