// Shard placement: every run is advanced by a sim.Coordinator
// (conservative lookahead synchronization; see internal/sim/shard.go),
// over one shard unless Spec.Shards asks for more, in which case the
// graph is spread over that many event queues running in parallel. This
// file owns how a plan becomes a partitioner input (which specs may use
// more than one shard is checkShardable's business, in validate.go).
//
// Placement rules the compiler follows:
//   - A junction lives on the shard the partitioner assigns it
//     (topo.Partition: zero-delay edges are never cut, Spec.ShardMap
//     pins nodes manually).
//   - A flow's endpoint lives with its data route's origin junction and
//     its receiver with the data route's last junction, because both
//     inject packets synchronously into their neighbor.
//   - A receiver also injects ACKs synchronously into the ACK route's
//     origin junction, so that junction must share the receiver's
//     shard. Where a flow's two junctions differ (a chain's ACKs enter
//     the opposite chain at its first junction) the partitioner input
//     gets a zero-delay tie between them; a mesh ACK path starts where
//     the data path ends, so it needs none.
//
// No recorder is shared between shards while a run executes: a receiver
// writes only its own flow's, and the run-wide ones (the pooled delay
// recorder, the adversary class recorders) are merged from those after
// the run, in flow order, at every shard count (poolDelays in
// harness.go). The shard count selects no code path in measurement.
package exp

import (
	"fmt"
	"slices"

	"abc/internal/sim"
	"abc/internal/topo"
)

// newGraph creates the empty topology graph a plan is built into, over
// a coordinator of max(1, Spec.Shards) shards. One shard holds every
// junction and needs no partition. For more, the partitioner sees the
// plan's edges plus one zero-delay tie per flow whose receiver's
// junction (where its data route ends) is not the junction its ACK
// route starts at — the receiver injects ACKs there synchronously, so
// the two must share a shard. Spec.ShardMap pins junctions by name.
func newGraph(spec *Spec, p *plan) (*topo.Graph, error) {
	if spec.Shards <= 1 {
		return topo.NewSharded(sim.NewCoordinator(spec.Seed, 1), nil), nil
	}
	pedges := make([]topo.PartEdge, 0, len(p.edges)+len(p.routes))
	for i := range p.edges {
		e := &p.edges[i]
		pedges = append(pedges, topo.PartEdge{From: e.from, To: e.to, Delay: e.link.Delay})
	}
	for _, r := range p.routes {
		if len(r.ack) == 0 {
			continue // direct ACK wire: no junction injection
		}
		last, ackOrigin := p.edges[r.data[len(r.data)-1]].to, p.edges[r.ack[0]].from
		if last != ackOrigin {
			pedges = append(pedges, topo.PartEdge{From: last, To: ackOrigin, Delay: 0})
		}
	}
	var override map[int]int
	if len(spec.ShardMap) > 0 {
		override = make(map[int]int, len(spec.ShardMap))
		for name, sh := range spec.ShardMap {
			id := slices.Index(p.nodes, name)
			if id < 0 {
				return nil, fmt.Errorf("exp: ShardMap: unknown node %q", name)
			}
			override[id] = sh
		}
	}
	assign, err := topo.Partition(len(p.nodes), pedges, spec.Shards, override)
	if err != nil {
		return nil, err
	}
	return topo.NewSharded(sim.NewCoordinator(spec.Seed, spec.Shards), assign), nil
}
