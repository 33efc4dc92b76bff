// Adversary accounting: when a Spec contains an adversary — an installed
// or event-scheduled topo.Attack, a misbehaving (greedy) flow, or a lying
// ABC router — the harness classifies every flow as victim, bystander or
// attacker and splits the run's degradation metrics along those lines:
// per-class throughput, p95 packet delay, workload FCT/slowdown, ABR QoE,
// and Jain fairness over all flows vs. honest flows only. Classification
// is static: a flow is a victim if any attack's Target ever selects it
// (time windows and direction are deliberately ignored — a flow attacked
// for part of the run is a victim for all of it), an attacker if its
// FlowSpec.Misbehave is set, and a bystander otherwise. Dynamically
// spawned workload flows are classified by the same per-flow draw, which
// is stable in the flow id (topo.Target.SelectsFlow), so a Fraction-based
// attack partitions them deterministically too.
package exp

import (
	"abc/internal/app"
	"abc/internal/metrics"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
)

// AdversaryReport is Result.Adversary: the victim/bystander/attacker
// split of a run's degradation metrics.
type AdversaryReport struct {
	// Victims / Bystanders / Attackers list the static flow indices in
	// each class. Workload-spawned flows contribute to the FCT splits but
	// are not listed (their ids are an arrival-process detail).
	Victims    []int `json:"victims"`
	Bystanders []int `json:"bystanders"`
	Attackers  []int `json:"attackers,omitempty"`
	// VictimMbps / BystanderMbps / AttackerMbps are the mean per-flow
	// throughputs of each class (zero when the class is empty).
	VictimMbps    float64 `json:"victim_mbps"`
	BystanderMbps float64 `json:"bystander_mbps"`
	AttackerMbps  float64 `json:"attacker_mbps,omitempty"`
	// VictimP95Ms / BystanderP95Ms are p95 one-way packet delays pooled
	// across the class's static flows.
	VictimP95Ms    float64 `json:"victim_p95_ms"`
	BystanderP95Ms float64 `json:"bystander_p95_ms"`
	// JainAll is Jain's fairness index over every static flow's
	// throughput; JainHonest excludes the attackers, isolating how evenly
	// the adversary's damage spreads over the honest flows.
	JainAll    metrics.Fairness `json:"jain_all"`
	JainHonest metrics.Fairness `json:"jain_honest"`
	// VictimFCT / BystanderFCT summarize workload flow completion times
	// per class (nil when no workload flow of the class completed).
	VictimFCT    *metrics.FCTStats `json:"victim_fct,omitempty"`
	BystanderFCT *metrics.FCTStats `json:"bystander_fct,omitempty"`
	// VictimQoE / BystanderQoE average ABR video QoE over the class's
	// sessions (nil when the class has none).
	VictimQoE    *metrics.QoE `json:"victim_qoe,omitempty"`
	BystanderQoE *metrics.QoE `json:"bystander_qoe,omitempty"`
	// Drops / Delayed / Stripped mirror the ledger's adversary drops and
	// Result.AdvDelayed/AdvStripped for self-contained report rendering.
	Drops    int64 `json:"drops"`
	Delayed  int64 `json:"delayed"`
	Stripped int64 `json:"stripped"`
}

// advCollector accumulates the per-class recorders behind an
// AdversaryReport while the run executes.
type advCollector struct {
	seed      int64
	attacks   []*topo.Attack
	attackers map[int]bool

	victimDelay    metrics.DelayRecorder
	bystanderDelay metrics.DelayRecorder

	victimFCT      metrics.DelayRecorder
	victimSlow     metrics.DelayRecorder
	victimBytes    int64
	bystanderFCT   metrics.DelayRecorder
	bystanderSlow  metrics.DelayRecorder
	bystanderBytes int64
}

// newAdvCollector returns a collector when the spec contains an adversary
// (any attack, any misbehaving flow, any lying router) and nil otherwise,
// so honest runs carry zero overhead and a nil Result.Adversary.
func newAdvCollector(spec *Spec, p *plan) *advCollector {
	// Every attack the spec can ever install: build-time attacks on the
	// compiled edges, plus attacks scheduled by "attack" events.
	var attacks []*topo.Attack
	lying := false
	for i := range p.edges {
		ls := p.edges[i].link
		if ls.Attack != nil {
			attacks = append(attacks, ls.Attack)
		}
		if c := ls.Qdisc.ABCConfig; c != nil && c.LieFraction != 0 {
			lying = true
		}
	}
	for i := range spec.Events {
		if a := spec.Events[i].Attack; a != nil {
			attacks = append(attacks, a)
		}
	}
	attackers := map[int]bool{}
	for i := range spec.Flows {
		if spec.Flows[i].Misbehave != "" {
			attackers[i] = true
		}
	}
	if len(attacks) == 0 && len(attackers) == 0 && !lying {
		return nil
	}
	return &advCollector{seed: spec.Seed, attacks: attacks, attackers: attackers}
}

// victim reports whether any of the spec's attacks ever selects the flow.
func (c *advCollector) victim(flow int) bool {
	if c.attackers[flow] {
		return false
	}
	for _, a := range c.attacks {
		if a.Target.SelectsFlow(flow, c.seed) {
			return true
		}
	}
	return false
}

// mergeDelay pools one flow's delay recorder into its class. Attacker
// delays are not pooled: the report contrasts the honest classes.
func (c *advCollector) mergeDelay(flow int, rec *metrics.DelayRecorder) {
	if c.attackers[flow] {
		return
	}
	if c.victim(flow) {
		c.victimDelay.Merge(rec)
	} else {
		c.bystanderDelay.Merge(rec)
	}
}

// addFCT records one completed workload flow into its class. A zero
// slowdown means the workload has no RefMbps reference and records only
// the raw FCT.
func (c *advCollector) addFCT(flow int, fct sim.Time, slowdown float64, bytes int64) {
	if c.victim(flow) {
		c.victimFCT.Add(fct)
		if slowdown > 0 {
			c.victimSlow.AddSample(slowdown)
		}
		c.victimBytes += bytes
	} else {
		c.bystanderFCT.Add(fct)
		if slowdown > 0 {
			c.bystanderSlow.AddSample(slowdown)
		}
		c.bystanderBytes += bytes
	}
}

// meanQoE averages QoE sessions componentwise.
func meanQoE(qs []metrics.QoE) *metrics.QoE {
	if len(qs) == 0 {
		return nil
	}
	var m metrics.QoE
	for _, q := range qs {
		m.MeanKbps += q.MeanKbps
		m.RebufferRatio += q.RebufferRatio
		m.RebufferS += q.RebufferS
		m.Switches += q.Switches
		m.Chunks += q.Chunks
		m.StartupS += q.StartupS
		m.PlayedS += q.PlayedS
	}
	n := float64(len(qs))
	m.MeanKbps /= n
	m.RebufferRatio /= n
	m.RebufferS /= n
	m.StartupS /= n
	m.PlayedS /= n
	return &m
}

// report assembles the AdversaryReport from the finished result.
func (c *advCollector) report(spec *Spec, res *Result) *AdversaryReport {
	rep := &AdversaryReport{
		VictimP95Ms:    c.victimDelay.P95(),
		BystanderP95Ms: c.bystanderDelay.P95(),
		Drops:          res.Ledger.Released[packet.Adversary],
		Delayed:        res.AdvDelayed,
		Stripped:       res.AdvStripped,
	}
	var all, honest []float64
	var victimQs, bystanderQs []metrics.QoE
	var vSum, bSum, aSum float64
	for i := range res.Flows {
		fr := &res.Flows[i]
		all = append(all, fr.TputMbps)
		var qoe *metrics.QoE
		if abr, ok := fr.App.(*app.ABR); ok {
			q := abr.QoE()
			qoe = &q
		}
		switch {
		case c.attackers[i]:
			rep.Attackers = append(rep.Attackers, i)
			aSum += fr.TputMbps
		case c.victim(i):
			rep.Victims = append(rep.Victims, i)
			vSum += fr.TputMbps
			honest = append(honest, fr.TputMbps)
			if qoe != nil {
				victimQs = append(victimQs, *qoe)
			}
		default:
			rep.Bystanders = append(rep.Bystanders, i)
			bSum += fr.TputMbps
			honest = append(honest, fr.TputMbps)
			if qoe != nil {
				bystanderQs = append(bystanderQs, *qoe)
			}
		}
	}
	if n := len(rep.Victims); n > 0 {
		rep.VictimMbps = vSum / float64(n)
	}
	if n := len(rep.Bystanders); n > 0 {
		rep.BystanderMbps = bSum / float64(n)
	}
	if n := len(rep.Attackers); n > 0 {
		rep.AttackerMbps = aSum / float64(n)
	}
	rep.JainAll = metrics.JainIndex(all)
	rep.JainHonest = metrics.JainIndex(honest)
	if c.victimFCT.Count() > 0 {
		st := metrics.NewFCTStats("victim", &c.victimFCT, &c.victimSlow, c.victimBytes)
		rep.VictimFCT = &st
	}
	if c.bystanderFCT.Count() > 0 {
		st := metrics.NewFCTStats("bystander", &c.bystanderFCT, &c.bystanderSlow, c.bystanderBytes)
		rep.BystanderFCT = &st
	}
	rep.VictimQoE = meanQoE(victimQs)
	rep.BystanderQoE = meanQoE(bystanderQs)
	return rep
}
