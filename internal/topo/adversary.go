// Adversarial impairments: targeted fault injection aimed at specific
// flows, as opposed to the oblivious loss/jitter/reordering of
// impair.go. An Attack installs on an edge (Edge.SetAttack) and gates
// three impairment actions — targeted drop, targeted extra delay,
// targeted mark-stripping — behind a Target selector that picks victims
// by flow id, by a seeded random fraction of flow ids, by direction
// (data vs ACK) and by time window. Attacks are retunable mid-run, so a
// timed event timeline can switch victims, escalate or call an attack
// off while packets are in flight.
//
// Determinism contract: victim selection by Fraction is a pure function
// of (simulator seed, flow id) — not of packet arrival order — and the
// attack's own randomness (DropRate draws) comes from a per-edge RNG
// stream seeded by the edge name, independent of the impairment stream.
// A fixed seed therefore replays the exact same attack regardless of
// unrelated topology or traffic changes.
package topo

import (
	"fmt"

	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
)

// TargetDir selects which packet direction an attack matches.
type TargetDir int

const (
	// TargetBoth matches data packets and ACKs alike (the default).
	TargetBoth TargetDir = iota
	// TargetData matches only data packets.
	TargetData
	// TargetAck matches only acknowledgements.
	TargetAck
)

// String names the direction for errors and annotations.
func (d TargetDir) String() string {
	switch d {
	case TargetData:
		return "data"
	case TargetAck:
		return "ack"
	}
	return "both"
}

// MarshalText spells the direction as a scenario file does.
func (d TargetDir) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText reads "both" (or ""), "data" or "ack".
func (d *TargetDir) UnmarshalText(b []byte) error {
	for _, v := range []TargetDir{TargetBoth, TargetData, TargetAck} {
		if string(b) == v.String() || len(b) == 0 {
			*d = v
			return nil
		}
	}
	return fmt.Errorf("unknown dir %q (want both, data or ack)", b)
}

// Target selects the victim packets of an attack. A packet matches when
// its flow is selected (explicitly listed in Flows, or drawn into the
// seeded Fraction), its direction matches Dir, and the current time lies
// in [From, To) — To zero meaning forever. Flows and Fraction compose as
// a union; at least one must select something for the Target to be
// valid. The struct tags are the scenario file's attack-clause keys.
type Target struct {
	// Flows lists victim flow ids explicitly.
	Flows []int `spec:"flows"`
	// Fraction additionally selects each flow id independently with this
	// probability, decided once per flow by a hash of (seed, flow id):
	// membership is stable across the run and across packet orderings,
	// and covers dynamically spawned workload flows too.
	Fraction float64 `spec:"fraction"`
	// Dir restricts the attack to data packets or ACKs.
	Dir TargetDir `spec:"dir"`
	// From / To bound the attack's active window on the simulation
	// clock; To zero means no end.
	From sim.Time `spec:"from_s"`
	To   sim.Time `spec:"to_s"`
}

// Validate rejects malformed selectors with a descriptive error.
func (t Target) Validate() error {
	if t.Fraction < 0 || t.Fraction > 1 {
		return fmt.Errorf("target fraction %g outside [0, 1]", t.Fraction)
	}
	if len(t.Flows) == 0 && t.Fraction == 0 {
		return fmt.Errorf("target selects no flows (need flows or fraction)")
	}
	for _, f := range t.Flows {
		if f < 0 {
			return fmt.Errorf("target flow id %d is negative", f)
		}
	}
	if t.Dir < TargetBoth || t.Dir > TargetAck {
		return fmt.Errorf("unknown target direction %d", t.Dir)
	}
	if t.From < 0 || t.To < 0 {
		return fmt.Errorf("negative target time window")
	}
	if t.To > 0 && t.To <= t.From {
		return fmt.Errorf("target window [%v, %v) is empty", t.From, t.To)
	}
	return nil
}

// SelectsFlow reports whether the target's flow-level selection (Flows
// union Fraction, ignoring direction and time window) covers the given
// flow id under the given simulation seed. Experiment reporting uses it
// to classify flows into victims and bystanders with the exact rule the
// attack stage applies.
func (t Target) SelectsFlow(flow int, seed int64) bool {
	for _, f := range t.Flows {
		if f == flow {
			return true
		}
	}
	return t.Fraction > 0 && flowDraw(seed, flow) < t.Fraction
}

// matches reports whether a packet is a victim at the given time.
func (t Target) matches(now sim.Time, p *packet.Packet, seed int64) bool {
	if now < t.From || (t.To > 0 && now >= t.To) {
		return false
	}
	if (t.Dir == TargetData && p.IsAck) || (t.Dir == TargetAck && !p.IsAck) {
		return false
	}
	return t.SelectsFlow(p.Flow, seed)
}

// flowDraw maps (seed, flow) to a uniform value in [0, 1) with a
// splitmix64-style finalizer: per-flow victim membership is decided by
// this one draw, so it cannot drift with packet order or edge count.
func flowDraw(seed int64, flow int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(flow+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(uint64(1)<<53)
}

// Attack is one edge's adversarial stage: every arriving packet the
// Target matches is subjected, in order, to a probabilistic drop, to
// mark-stripping, and to a fixed extra delay. At least one action must
// be configured.
type Attack struct {
	// Target selects the victim packets.
	Target Target `spec:",inline"`
	// DropRate discards each matching packet with this probability
	// (drawn from the edge's private attack RNG).
	DropRate float64 `spec:"drop_rate"`
	// StripMarks demotes an ABC accelerate to a brake on matching
	// packets — data marks and ACK-borne echoes alike, the same channel
	// an honest router may demote through, wielded indiscriminately.
	StripMarks bool `spec:"strip_marks"`
	// ExtraDelay defers each matching packet by this much before it
	// enters the edge's chain. Unlike jitter, delivery order is NOT
	// preserved: unmatched packets overtake deferred victims, which is
	// precisely the reordering a delay attack induces.
	ExtraDelay sim.Time `spec:"extra_delay_ms"`
}

// Validate rejects malformed attacks with a descriptive error.
func (a *Attack) Validate() error {
	if err := a.Target.Validate(); err != nil {
		return err
	}
	if a.DropRate < 0 || a.DropRate > 1 {
		return fmt.Errorf("attack drop rate %g outside [0, 1]", a.DropRate)
	}
	if a.ExtraDelay < 0 {
		return fmt.Errorf("negative attack extra delay")
	}
	if a.DropRate == 0 && !a.StripMarks && a.ExtraDelay == 0 {
		return fmt.Errorf("attack configures no action (need drop, strip_marks or extra_delay)")
	}
	return nil
}

// String renders the attack for event annotations.
func (a *Attack) String() string {
	s := fmt.Sprintf("target{flows=%v frac=%g dir=%s}", a.Target.Flows, a.Target.Fraction, a.Target.Dir)
	if a.DropRate > 0 {
		s += fmt.Sprintf(" drop=%g", a.DropRate)
	}
	if a.StripMarks {
		s += " strip"
	}
	if a.ExtraDelay > 0 {
		s += fmt.Sprintf(" delay=%v", a.ExtraDelay)
	}
	return s
}

// SetAttack installs, replaces or (with nil) clears the edge's attack
// stage. The edge's attack RNG is created on first install and survives
// replacements, so a timeline that swaps attack configurations draws
// one continuous deterministic stream. The caller must not mutate a
// after installing it.
func (e *Edge) SetAttack(a *Attack) {
	if a != nil && e.advRng == nil {
		e.advRng = e.rand("attack")
	}
	if e.g.rec.Enabled(obs.CatAttack) {
		k := obs.EvAttackOff
		if a != nil {
			k = obs.EvAttackOn
		}
		e.g.rec.Emit(int64(e.g.S.Now()), k, int32(e.ID), -1, 0, 0)
	}
	e.attack = a
}

// Attacked reports whether an attack stage is currently installed.
func (e *Edge) Attacked() bool { return e.attack != nil }

// advDeliver is the static deferred-delivery callback (no per-packet
// closure). Deferred packets were already admitted past the down gate
// and the attack stage; they enter the edge chain directly, even if the
// edge went down or the attack was retuned while they were held.
func advDeliver(a, b any) { a.(*Edge).head.Recv(b.(*packet.Packet)) }

// applyAttack runs the attack stage on one packet, reporting whether the
// packet should continue into the edge chain now (false: it was dropped
// or deferred and the stage owns what happens next).
func (e *Edge) applyAttack(p *packet.Packet) bool {
	a := e.attack
	if !a.Target.matches(e.g.S.Now(), p, e.g.S.Seed()) {
		return true
	}
	if a.DropRate > 0 && e.advRng.Float64() < a.DropRate {
		if e.g.rec.Enabled(obs.CatAttack) {
			e.g.rec.Emit(int64(e.g.S.Now()), obs.EvAttackDrop, int32(e.ID), int32(p.Flow), 0, 0)
		}
		p.Drop(packet.Adversary)
		return false
	}
	if a.StripMarks && p.ECN == packet.Accel {
		p.ECN = packet.Brake
		e.AdvStripped++
		if e.g.rec.Enabled(obs.CatAttack) {
			e.g.rec.Emit(int64(e.g.S.Now()), obs.EvAttackStrip, int32(e.ID), int32(p.Flow), 0, 0)
		}
	}
	if a.ExtraDelay > 0 {
		e.AdvDelayed++
		if e.g.rec.Enabled(obs.CatAttack) {
			e.g.rec.Emit(int64(e.g.S.Now()), obs.EvAttackDelay, int32(e.ID), int32(p.Flow), int64(a.ExtraDelay), 0)
		}
		e.g.S.AfterArgs(a.ExtraDelay, advDeliver, e, p)
		return false
	}
	return true
}
