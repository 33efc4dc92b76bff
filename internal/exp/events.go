// Timed topology events: a Spec may carry a timeline of mid-run
// mutations — route changes, link rate/delay changes, link outages —
// executed on the simulation clock through the topo.Router API. Edges are
// addressed by the compiled graph's edge names: a mesh's as declared, a
// chain's links as "fwd<i>" / "rev<i>". Everything that can be validated
// statically (edge names, flow indices, route well-formedness, target
// link kinds) is validated before the run starts, so a typo'd timeline
// is a Spec error rather than a mid-run surprise.
package exp

import (
	"fmt"
	"strings"

	"abc/internal/netem"
	"abc/internal/sim"
	"abc/internal/topo"
)

// Event kinds.
const (
	// EventReroute atomically swaps a flow's data (or, with Ack, ACK)
	// route onto Path. Packets in flight on abandoned edges drain to the
	// next junction and are counted in Result.Drops unless the junction
	// lies on the new route (topo's conservation contract).
	EventReroute = "reroute"
	// EventSetRate changes a rate link's capacity to RateMbps.
	EventSetRate = "set_rate"
	// EventSetDelay changes an edge's propagation delay to Delay. Only
	// edges built with a positive delay own a delay stage to retune.
	EventSetDelay = "set_delay"
	// EventLinkDown takes an edge down: arrivals are dropped (booked as
	// packet.LinkDown in Result.Ledger) until a matching link_up.
	EventLinkDown = "link_down"
	// EventLinkUp brings a downed edge back up.
	EventLinkUp = "link_up"
	// EventAttack installs (or retunes — an attack switching victims
	// mid-run is just a second attack event on the same edge) the
	// adversarial stage on an edge.
	EventAttack = "attack"
	// EventClearAttack removes an edge's adversarial stage.
	EventClearAttack = "clear_attack"
)

// EventSpec is one timed mutation of the running topology.
type EventSpec struct {
	// At is when the event fires on the simulation clock.
	At sim.Time `spec:"at_s"`
	// Kind is one of the Event* constants.
	Kind string `spec:"kind"`
	// Flow indexes Spec.Flows for reroute events.
	Flow int `spec:"flow"`
	// Ack selects the flow's ACK route instead of its data route.
	Ack bool `spec:"ack"`
	// Path is the reroute's new route: edge names, in order, starting at
	// the flow's existing origin junction.
	Path []string `spec:"path"`
	// Edge names the target edge for set_rate/set_delay/link_down/link_up.
	Edge string `spec:"edge"`
	// RateMbps is the new capacity for set_rate.
	RateMbps float64 `spec:"rate_mbps"`
	// Delay is the new propagation delay for set_delay.
	Delay sim.Time `spec:"delay_ms"`
	// Attack is the adversarial stage installed by attack events.
	Attack *topo.Attack `spec:"attack"`
}

// EventResult annotates one executed event in Result.Events.
type EventResult struct {
	AtMs   float64 `json:"at_ms"`
	Kind   string  `json:"kind"`
	Target string  `json:"target"`
}

// scheduleEvents validates the Spec's event timeline against the
// compiled graph and registers each event on the coordinator timeline.
// Every shard
// quiesces to the event time before the mutation applies, so a topology
// change is never observed partially by a shard that ran ahead, and at
// one instant timeline events run in Spec order before any simulator
// event.
func (c *compiled) scheduleEvents() error {
	g, spec, res, edgeID := c.g, c.spec, c.res, c.p.edgeID
	if len(spec.Events) == 0 {
		return nil
	}
	rtr := g.Router()
	res.Events = make([]EventResult, 0, len(spec.Events))
	for i := range spec.Events {
		ev := &spec.Events[i]
		where := fmt.Sprintf("exp: events[%d] (%s)", i, ev.Kind)
		if ev.At < 0 {
			return fmt.Errorf("%s: negative time", where)
		}
		apply, target, err := compileEvent(g, rtr, spec, edgeID, ev, where)
		if err != nil {
			return err
		}
		at, kind := ev.At, ev.Kind
		fire := func() {
			apply()
			res.Events = append(res.Events, EventResult{AtMs: at.Millis(), Kind: kind, Target: target})
		}
		g.Coordinator().GlobalAt(ev.At, fire)
	}
	return nil
}

// compileEvent validates one event and returns its application closure
// plus the human-readable target annotation.
func compileEvent(g *topo.Graph, rtr *topo.Router, spec *Spec, edgeID map[string]int, ev *EventSpec, where string) (func(), string, error) {
	targetEdge := func() (*topo.Edge, error) {
		// Every edge-targeted kind rejects the reroute fields: a stray
		// field is a typo'd timeline, not something to silently ignore.
		if len(ev.Path) > 0 || ev.Ack || ev.Flow != 0 {
			return nil, fmt.Errorf("%s: flow/ack/path are reroute fields", where)
		}
		if ev.Edge == "" {
			return nil, fmt.Errorf("%s: missing edge name", where)
		}
		id, ok := edgeID[ev.Edge]
		if !ok {
			return nil, fmt.Errorf("%s: unknown edge %q", where, ev.Edge)
		}
		return g.Edge(id), nil
	}
	if ev.Attack != nil && ev.Kind != EventAttack {
		return nil, "", fmt.Errorf("%s: attack is an attack-event field", where)
	}
	switch ev.Kind {
	case EventReroute:
		if ev.Edge != "" || ev.RateMbps != 0 || ev.Delay != 0 {
			return nil, "", fmt.Errorf("%s: edge/rate/delay are not reroute fields", where)
		}
		if ev.Flow < 0 || ev.Flow >= len(spec.Flows) {
			return nil, "", fmt.Errorf("%s: flow %d out of range [0, %d)", where, ev.Flow, len(spec.Flows))
		}
		if len(ev.Path) == 0 {
			return nil, "", fmt.Errorf("%s: missing path", where)
		}
		edges := make([]int, len(ev.Path))
		for j, name := range ev.Path {
			id, ok := edgeID[name]
			if !ok {
				return nil, "", fmt.Errorf("%s: unknown edge %q", where, name)
			}
			edges[j] = id
		}
		// The reroute is fully decidable statically: the origin never
		// changes, so a timeline that validates here cannot fail mid-run.
		if err := rtr.CheckReroute(ev.Flow, ev.Ack, edges); err != nil {
			return nil, "", fmt.Errorf("%s: %v", where, err)
		}
		dir := "data"
		if ev.Ack {
			dir = "ack"
		}
		target := fmt.Sprintf("flow %d %s -> %s", ev.Flow, dir, strings.Join(ev.Path, ">"))
		flow, ack := ev.Flow, ev.Ack
		return func() {
			// CheckReroute passed statically and nothing it depends on
			// changes mid-run, so Reroute cannot fail here.
			if err := rtr.Reroute(flow, ack, edges); err != nil {
				panic(fmt.Sprintf("exp: statically validated reroute failed: %v", err))
			}
		}, target, nil
	case EventSetRate:
		if ev.Delay != 0 {
			return nil, "", fmt.Errorf("%s: delay is a set_delay field", where)
		}
		e, err := targetEdge()
		if err != nil {
			return nil, "", err
		}
		if ev.RateMbps <= 0 {
			return nil, "", fmt.Errorf("%s: needs rate_mbps > 0", where)
		}
		rl, ok := e.Link.(*netem.RateLink)
		if !ok {
			return nil, "", fmt.Errorf("%s: edge %q is not a rate link (kind \"rate\")", where, ev.Edge)
		}
		rate := ev.RateMbps * 1e6
		target := fmt.Sprintf("edge %s rate %g Mbit/s", ev.Edge, ev.RateMbps)
		return func() { rl.SetRate(rate) }, target, nil
	case EventSetDelay:
		if ev.RateMbps != 0 {
			return nil, "", fmt.Errorf("%s: rate_mbps is a set_rate field", where)
		}
		e, err := targetEdge()
		if err != nil {
			return nil, "", err
		}
		if ev.Delay < 0 {
			return nil, "", fmt.Errorf("%s: negative delay", where)
		}
		if e.CrossShard() {
			return nil, "", fmt.Errorf("%s: edge %q crosses shards; its delay is the synchronization lookahead and cannot be retuned", where, ev.Edge)
		}
		if !e.DelayMutable() {
			return nil, "", fmt.Errorf("%s: edge %q was built with zero delay; give it a positive delay to make it mutable", where, ev.Edge)
		}
		d := ev.Delay
		target := fmt.Sprintf("edge %s delay %v", ev.Edge, ev.Delay)
		return func() {
			if err := e.SetDelay(d); err != nil {
				panic(fmt.Sprintf("exp: statically validated set_delay failed: %v", err))
			}
		}, target, nil
	case EventLinkDown, EventLinkUp:
		if ev.RateMbps != 0 || ev.Delay != 0 {
			return nil, "", fmt.Errorf("%s: rate/delay are not link_down/link_up fields", where)
		}
		e, err := targetEdge()
		if err != nil {
			return nil, "", err
		}
		down := ev.Kind == EventLinkDown
		state := "up"
		if down {
			state = "down"
		}
		target := fmt.Sprintf("edge %s %s", ev.Edge, state)
		return func() { e.SetDown(down) }, target, nil
	case EventAttack:
		if ev.RateMbps != 0 || ev.Delay != 0 {
			return nil, "", fmt.Errorf("%s: rate/delay are not attack fields", where)
		}
		e, err := targetEdge()
		if err != nil {
			return nil, "", err
		}
		if ev.Attack == nil {
			return nil, "", fmt.Errorf("%s: missing attack", where)
		}
		if err := ev.Attack.Validate(); err != nil {
			return nil, "", fmt.Errorf("%s: %v", where, err)
		}
		a := ev.Attack
		target := fmt.Sprintf("edge %s %s", ev.Edge, a)
		return func() { e.SetAttack(a) }, target, nil
	case EventClearAttack:
		if ev.RateMbps != 0 || ev.Delay != 0 {
			return nil, "", fmt.Errorf("%s: rate/delay are not clear_attack fields", where)
		}
		e, err := targetEdge()
		if err != nil {
			return nil, "", err
		}
		target := fmt.Sprintf("edge %s attack cleared", ev.Edge)
		return func() { e.SetAttack(nil) }, target, nil
	}
	return nil, "", fmt.Errorf("%s: unknown event kind %q (want %s)", where, ev.Kind,
		strings.Join([]string{EventReroute, EventSetRate, EventSetDelay, EventLinkDown, EventLinkUp, EventAttack, EventClearAttack}, ", "))
}
