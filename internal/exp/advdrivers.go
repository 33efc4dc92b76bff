// Adversary drivers: experiments pitting each scheme against the
// impairment layer's attackers. targeted runs the same chain twice —
// honest, then with a targeted attack (drop + extra delay + mark
// stripping) pinned on one victim flow — and reports how the victim
// degrades while the bystanders hold; greedy replaces one flow's sender
// with the brake-ignoring greedy wrapper and quantifies the bandwidth it
// steals from the honest majority under ABC and each explicit baseline.
// Both have declarative twins in examples/scenarios/ (targeted.json,
// greedy.json).
package exp

import (
	"fmt"
	"io"

	"abc/internal/cc"
	"abc/internal/metrics"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
)

// AttackClassDelta compares one flow class (victim or bystanders)
// between the honest baseline run and the attacked run.
type AttackClassDelta struct {
	// HonestMbps / AttackedMbps are the class's mean per-flow throughput
	// in each run.
	HonestMbps, AttackedMbps float64
	// HonestP95Ms / AttackedP95Ms are the class's pooled p95 one-way
	// delays in each run.
	HonestP95Ms, AttackedP95Ms float64
}

// TargetedResult is one scheme's outcome on the targeted-attack
// scenario: the same chain run honest and under attack.
type TargetedResult struct {
	// Victim and Bystander contrast flow 0 (the attack's target) and the
	// other flows across the two runs.
	Victim, Bystander AttackClassDelta
	// JainHonest / JainAttacked are Jain's fairness indices over all
	// flows in each run.
	JainHonest, JainAttacked metrics.Fairness
	// Drops / Delayed / Stripped count the adversarial stage's actions in
	// the attacked run.
	Drops, Delayed, Stripped int64
	// Report is the attacked run's full adversary report.
	Report *AdversaryReport
	// Events annotates the attacked run's executed timeline.
	Events []EventResult
}

// targetedAttack is the attack both the driver and its tests pin on the
// victim: 1% targeted drop, 30 ms of extra one-way delay, and ABC mark
// stripping.
func targetedAttack() *topo.Attack {
	return &topo.Attack{
		Target:     topo.Target{Flows: []int{0}},
		DropRate:   0.01,
		StripMarks: true,
		ExtraDelay: 30 * sim.Millisecond,
	}
}

// targetedSpec builds the shared chain: four same-scheme flows over one
// 16 Mbit/s rate bottleneck.
func targetedSpec(scheme string, dur sim.Time, seed int64) Spec {
	return Spec{
		Seed:     seed,
		Duration: dur,
		RTT:      80 * sim.Millisecond,
		Links: []LinkSpec{{
			Rate:  16e6,
			Qdisc: QdiscSpec{Kind: "auto"},
		}},
		Flows: []FlowSpec{
			{Scheme: scheme}, {Scheme: scheme}, {Scheme: scheme}, {Scheme: scheme},
		},
	}
}

// classStats summarizes one run's victim (flow 0) and bystander (the
// rest) classes: throughput as the class's per-flow mean, delay as the
// victim's p95 and the mean of the bystanders' p95s.
func classStats(res *Result) (victimMbps, victimP95, byMbps, byP95 float64) {
	victimMbps = res.Flows[0].TputMbps
	victimP95 = res.Flows[0].Delay.P95()
	var tput, p95 float64
	for i := 1; i < len(res.Flows); i++ {
		tput += res.Flows[i].TputMbps
		p95 += res.Flows[i].Delay.P95()
	}
	if n := float64(len(res.Flows) - 1); n > 0 {
		byMbps = tput / n
		byP95 = p95 / n
	}
	return victimMbps, victimP95, byMbps, byP95
}

// jain computes Jain's index over a run's per-flow throughputs.
func jain(res *Result) metrics.Fairness {
	xs := make([]float64, len(res.Flows))
	for i := range res.Flows {
		xs[i] = res.Flows[i].TputMbps
	}
	return metrics.JainIndex(xs)
}

// targeted runs each scheme's four-flow chain twice — honest, then with
// a targeted attack (1% drop, 30 ms extra delay, mark stripping) pinned
// on flow 0 at the bottleneck — and reports the victim/bystander split:
// a well-isolated scheme degrades only the victim, and the bystanders'
// throughput and delay stay at their honest baseline.
func targeted(p Params) (map[string]TargetedResult, error) {
	if p.Dur <= 0 {
		p.Dur = 30 * sim.Second
	}
	return sweepMap("targeted", p, []string{"ABC", "Cubic", "XCP", "RCP"}, func(sch string) (r TargetedResult, err error) {
		honest, _, err := p.Run(targetedSpec(sch, p.Dur, p.Seed))
		if err != nil {
			return r, err
		}
		spec := targetedSpec(sch, p.Dur, p.Seed)
		spec.Links[0].Attack = targetedAttack()
		attacked, _, err := p.Run(spec)
		if err != nil {
			return r, err
		}
		r.Victim.HonestMbps, r.Victim.HonestP95Ms,
			r.Bystander.HonestMbps, r.Bystander.HonestP95Ms = classStats(honest)
		r.Victim.AttackedMbps, r.Victim.AttackedP95Ms,
			r.Bystander.AttackedMbps, r.Bystander.AttackedP95Ms = classStats(attacked)
		r.JainHonest = jain(honest)
		r.JainAttacked = jain(attacked)
		r.Drops = attacked.Ledger.Released[packet.Adversary]
		r.Delayed = attacked.AdvDelayed
		r.Stripped = attacked.AdvStripped
		r.Report = attacked.Adversary
		r.Events = attacked.Events
		return r, nil
	})
}

// GreedyResult is one scheme's outcome on the greedy-sender scenario:
// four same-scheme flows, with flow 0 honest in the baseline run and
// wrapped in the greedy shim in the adversarial run.
type GreedyResult struct {
	// BaselineMbps is flow 0's throughput when everyone is honest (its
	// fair share as actually realized).
	BaselineMbps float64
	// GreedyMbps is flow 0's throughput once it turns greedy, and
	// StolenMbps the difference — the bandwidth misbehaving bought.
	GreedyMbps, StolenMbps float64
	// HonestMeanMbps is the mean throughput of the honest flows in the
	// greedy run (what the victims are left with).
	HonestMeanMbps float64
	// JainBaseline / JainGreedy are Jain's indices over all flows in each
	// run: the fairness collapse is the attack's signature.
	JainBaseline, JainGreedy metrics.Fairness
	// BrakesIgnored / CEsIgnored / FeedbackClamped count the feedback the
	// greedy shim suppressed (scheme-dependent: ABC brakes, CE echoes,
	// XCP/RCP/VCP explicit feedback).
	BrakesIgnored, CEsIgnored, FeedbackClamped int64
	// Report is the greedy run's adversary report.
	Report *AdversaryReport
}

// greedy runs each scheme's four-flow chain twice — all honest, then
// with flow 0's sender wrapped in the greedy shim (ignores brakes and
// CE, clamps negative explicit feedback, floors its window at half its
// peak) — and quantifies the stolen bandwidth. Explicit schemes differ
// sharply here: an ABC router's marks are advisory, so a deaf sender
// keeps whatever it grabs until drops discipline it, while XCP/RCP
// senders that ignore feedback still face the router's per-packet
// allocations to everyone else.
func greedy(p Params) (map[string]GreedyResult, error) {
	if p.Dur <= 0 {
		p.Dur = 30 * sim.Second
	}
	return sweepMap("greedy", p, explicitSchemes, func(sch string) (r GreedyResult, err error) {
		honest, _, err := p.Run(targetedSpec(sch, p.Dur, p.Seed))
		if err != nil {
			return r, err
		}
		spec := targetedSpec(sch, p.Dur, p.Seed)
		spec.Flows[0].Misbehave = "greedy"
		greedy, _, err := p.Run(spec)
		if err != nil {
			return r, err
		}
		r.BaselineMbps = honest.Flows[0].TputMbps
		r.GreedyMbps = greedy.Flows[0].TputMbps
		r.StolenMbps = r.GreedyMbps - r.BaselineMbps
		var sum float64
		for j := 1; j < len(greedy.Flows); j++ {
			sum += greedy.Flows[j].TputMbps
		}
		r.HonestMeanMbps = sum / float64(len(greedy.Flows)-1)
		r.JainBaseline = jain(honest)
		r.JainGreedy = jain(greedy)
		g, ok := greedy.Flows[0].Algorithm.(*cc.Greedy)
		if !ok {
			return r, fmt.Errorf("exp: greedy driver: flow 0 algorithm is %T, want *cc.Greedy", greedy.Flows[0].Algorithm)
		}
		r.BrakesIgnored = g.BrakesIgnored
		r.CEsIgnored = g.CEsIgnored
		r.FeedbackClamped = g.FeedbackClamped
		r.Report = greedy.Adversary
		return r, nil
	})
}

// printTargeted renders each scheme's targeted-attack rows.
func printTargeted(w io.Writer, out map[string]TargetedResult) {
	for _, sch := range sortedKeys(out) {
		r := out[sch]
		fmt.Fprintf(w, "%-14s victim  %5.2f -> %5.2f Mbit/s  p95 %6.1f -> %6.1f ms\n"+
			"%-14s others  %5.2f -> %5.2f Mbit/s  p95 %6.1f -> %6.1f ms  jain %.3f -> %.3f  drops=%d delayed=%d stripped=%d\n",
			sch, r.Victim.HonestMbps, r.Victim.AttackedMbps, r.Victim.HonestP95Ms, r.Victim.AttackedP95Ms,
			"", r.Bystander.HonestMbps, r.Bystander.AttackedMbps, r.Bystander.HonestP95Ms, r.Bystander.AttackedP95Ms,
			r.JainHonest, r.JainAttacked, r.Drops, r.Delayed, r.Stripped)
	}
}

// printGreedy renders each scheme's greedy-sender row.
func printGreedy(w io.Writer, out map[string]GreedyResult) {
	for _, sch := range sortedKeys(out) {
		r := out[sch]
		fmt.Fprintf(w, "%-14s greedy %5.2f Mbit/s (honest baseline %5.2f, stolen %+5.2f)  honest mean %5.2f  jain %.3f -> %.3f  brakes=%d ce=%d clamped=%d\n",
			sch, r.GreedyMbps, r.BaselineMbps, r.StolenMbps, r.HonestMeanMbps,
			r.JainBaseline, r.JainGreedy, r.BrakesIgnored, r.CEsIgnored, r.FeedbackClamped)
	}
}
