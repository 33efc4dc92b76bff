// Chain notation front end. A chain Spec (Links / ReverseLinks, flows
// routed by Dir/EnterAt/ExitAt) is shorthand for a mesh: link i of Links
// is the edge "fwd<i>" from junction "fwd<i>" to "fwd<i+1>", link i of
// ReverseLinks the same over "rev", a Forward flow's data route is the
// forward edges its span covers and its ACK route the whole reverse
// chain (a direct wire when there is none), and a Reverse flow mirrors
// that. lowerChain validates the notation — spans, stray mesh fields,
// wire links — and emits that mesh as a plan; nothing here builds
// anything.
package exp

import (
	"fmt"
	"strconv"
)

// chainNames spells the first n canonical names of a chain, "fwd0",
// "fwd1", … or "rev0", "rev1", …. A chain of n links has n+1 junctions;
// link i runs from junction i to junction i+1 and shares junction i's
// name. Every chain name an event, a background or a metric label can
// address comes from here.
func chainNames(dir Direction, n int) []string {
	prefix := "fwd"
	if dir == Reverse {
		prefix = "rev"
	}
	names := make([]string, n)
	for i := range names {
		names[i] = prefix + strconv.Itoa(i)
	}
	return names
}

// chainRoute validates an EnterAt/ExitAt pair against the chain carrying
// the data (fwd, or rev for Dir Reverse) and resolves the route: the
// covered span of that chain, and the whole opposite chain for ACKs.
func chainRoute(rf routeFields, fwd, rev []int) (flowRoute, error) {
	if len(rf.path) > 0 || len(rf.ackPath) > 0 {
		return flowRoute{}, fmt.Errorf("exp: %s %d: Path/AckPath route over mesh edges; chain %ss use Dir/EnterAt/ExitAt", rf.kind, rf.i, rf.kind)
	}
	chain, name := fwd, "links"
	if rf.dir == Reverse {
		chain, rev, name = rev, fwd, "reverse links"
	}
	if len(chain) == 0 {
		return flowRoute{}, fmt.Errorf("exp: %s %d: no %s for its direction", rf.kind, rf.i, name)
	}
	if rf.enterAt < 0 || rf.enterAt >= len(chain) {
		return flowRoute{}, fmt.Errorf("exp: %s %d: EnterAt %d out of range [0, %d)", rf.kind, rf.i, rf.enterAt, len(chain))
	}
	exit := rf.exitAt
	if exit == 0 {
		exit = len(chain)
	}
	if exit < 0 || exit > len(chain) {
		return flowRoute{}, fmt.Errorf("exp: %s %d: ExitAt %d out of range [1, %d]", rf.kind, rf.i, rf.exitAt, len(chain))
	}
	if exit <= rf.enterAt {
		return flowRoute{}, fmt.Errorf("exp: %s %d: ExitAt %d does not reach past EnterAt %d", rf.kind, rf.i, rf.exitAt, rf.enterAt)
	}
	return flowRoute{data: chain[rf.enterAt:exit], ack: rev}, nil
}

// lowerChain translates a chain-notation Spec into the plan of its mesh.
func lowerChain(spec *Spec) (*plan, error) {
	nf, nr := len(spec.Links), len(spec.ReverseLinks)
	if nf == 0 {
		return nil, fmt.Errorf("exp: no links in spec")
	}
	p := &plan{
		links:  nf,
		edges:  make([]planEdge, 0, nf+nr),
		edgeID: make(map[string]int, nf+nr),
	}
	ids := make([]int, nf+nr)
	for dir, links := range [][]LinkSpec{Forward: spec.Links, Reverse: spec.ReverseLinks} {
		if len(links) == 0 {
			continue
		}
		base := len(p.nodes)
		p.nodes = append(p.nodes, chainNames(Direction(dir), len(links)+1)...)
		for i := range links {
			name, id := p.nodes[base+i], len(p.edges)
			if links[i].wire() {
				return nil, fmt.Errorf("exp: link %s: unknown link kind %q (a mesh edge kind; chain links need a bottleneck)", name, "wire")
			}
			p.edges = append(p.edges, planEdge{name: name, from: base + i, to: base + i + 1, link: &links[i]})
			p.edgeID[name], ids[id] = id, id
		}
	}
	fwd, rev := ids[:nf:nf], ids[nf:]

	return p, p.resolveRoutes(spec, func(rf routeFields) (flowRoute, error) { return chainRoute(rf, fwd, rev) })
}
