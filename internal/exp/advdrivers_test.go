package exp

import (
	"math"
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
)

// TestTargetedVictimDegradesBystandersHold is the adversary layer's
// acceptance bar: pinning the targeted attack on flow 0 must visibly
// degrade the victim (throughput down, p95 delay up by the injected
// 30 ms) while the bystanders' delay stays within 10% of their honest
// baseline — the attack is surgical, not collateral.
func TestTargetedVictimDegradesBystandersHold(t *testing.T) {
	res, err := targeted(Params{Schemes: []string{"ABC"}, Dur: 12 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := res["ABC"]
	if r.Victim.AttackedMbps >= r.Victim.HonestMbps/2 {
		t.Errorf("victim throughput barely moved: %.2f -> %.2f Mbit/s",
			r.Victim.HonestMbps, r.Victim.AttackedMbps)
	}
	if r.Victim.AttackedP95Ms < r.Victim.HonestP95Ms+20 {
		t.Errorf("victim p95 should absorb the 30 ms extra delay: %.1f -> %.1f ms",
			r.Victim.HonestP95Ms, r.Victim.AttackedP95Ms)
	}
	if rel := math.Abs(r.Bystander.AttackedP95Ms-r.Bystander.HonestP95Ms) / r.Bystander.HonestP95Ms; rel > 0.10 {
		t.Errorf("bystander p95 moved %.0f%% (%.1f -> %.1f ms); want within 10%%",
			rel*100, r.Bystander.HonestP95Ms, r.Bystander.AttackedP95Ms)
	}
	if r.JainAttacked >= r.JainHonest {
		t.Errorf("fairness should collapse under attack: jain %.3f -> %.3f",
			r.JainHonest, r.JainAttacked)
	}
	// The 1% drop rate may land zero drops on the starved victim's
	// trickle (adversary drops > 0 are asserted by the 100%-drop event tests);
	// delay and stripping hit every selected packet, so they must fire.
	if r.Delayed == 0 || r.Stripped == 0 {
		t.Errorf("adversary counters should fire: drops=%d delayed=%d stripped=%d",
			r.Drops, r.Delayed, r.Stripped)
	}
	rep := r.Report
	if rep == nil {
		t.Fatal("attacked run has no adversary report")
	}
	if len(rep.Victims) != 1 || rep.Victims[0] != 0 || len(rep.Bystanders) != 3 {
		t.Errorf("classification: victims=%v bystanders=%v, want [0] and three bystanders",
			rep.Victims, rep.Bystanders)
	}
	if rep.VictimP95Ms <= rep.BystanderP95Ms {
		t.Errorf("report p95: victim %.1f ms should exceed bystander %.1f ms",
			rep.VictimP95Ms, rep.BystanderP95Ms)
	}
}

// TestGreedyStealsFromEveryScheme asserts the greedy shim buys bandwidth
// under ABC and each explicit baseline, with the scheme-appropriate
// feedback counter firing.
func TestGreedyStealsFromEveryScheme(t *testing.T) {
	res, err := greedy(Params{Dur: 12 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range explicitSchemes {
		r, ok := res[scheme]
		if !ok {
			t.Errorf("%s: no result", scheme)
			continue
		}
		if r.StolenMbps <= 0 {
			t.Errorf("%s: greedy stole nothing (%.2f -> %.2f Mbit/s)",
				scheme, r.BaselineMbps, r.GreedyMbps)
		}
		if r.GreedyMbps <= r.HonestMeanMbps {
			t.Errorf("%s: greedy flow (%.2f) should beat the honest mean (%.2f)",
				scheme, r.GreedyMbps, r.HonestMeanMbps)
		}
		if r.JainGreedy >= r.JainBaseline {
			t.Errorf("%s: fairness should collapse: jain %.3f -> %.3f",
				scheme, r.JainBaseline, r.JainGreedy)
		}
		if r.Report == nil {
			t.Errorf("%s: greedy run has no adversary report", scheme)
		} else if len(r.Report.Attackers) != 1 || r.Report.Attackers[0] != 0 {
			t.Errorf("%s: attackers=%v, want [0]", scheme, r.Report.Attackers)
		}
	}
	if r := res["ABC"]; r.BrakesIgnored == 0 {
		t.Error("ABC: greedy sender ignored no brakes")
	}
	for _, scheme := range []string{"XCP", "RCP", "VCP"} {
		if r := res[scheme]; r.FeedbackClamped == 0 {
			t.Errorf("%s: greedy sender clamped no feedback", scheme)
		}
	}
}

// TestSameTimestampEventsApplyInSpecOrder locks the tie-break for
// events scheduled at the identical instant: spec order. An attack
// installing a 100% drop on flow 0 followed — at the same timestamp —
// by a clear_attack must net out to no attack, while the reversed spec
// order leaves the drop installed.
func TestSameTimestampEventsApplyInSpecOrder(t *testing.T) {
	kill := &topo.Attack{Target: topo.Target{Flows: []int{0}}, DropRate: 1}
	attackEv := EventSpec{At: 2 * sim.Second, Kind: EventAttack, Edge: "fwd0", Attack: kill}
	clearEv := EventSpec{At: 2 * sim.Second, Kind: EventClearAttack, Edge: "fwd0"}

	run := func(events []EventSpec) *Result {
		spec := targetedSpec("ABC", 8*sim.Second, 1)
		spec.Events = events
		res, _, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cleared := run([]EventSpec{attackEv, clearEv})
	if n := cleared.Ledger.Released[packet.Adversary]; n != 0 {
		t.Errorf("attack-then-clear at one timestamp should leave no attack, got %d adversarial drops", n)
	}
	installed := run([]EventSpec{clearEv, attackEv})
	if installed.Ledger.Released[packet.Adversary] == 0 {
		t.Error("clear-then-attack at one timestamp should leave the attack installed, got no adversarial drops")
	}
	if cleared.Flows[0].TputMbps <= installed.Flows[0].TputMbps {
		t.Errorf("flow 0 should do better with the attack cleared (%.2f Mbit/s) than installed (%.2f Mbit/s)",
			cleared.Flows[0].TputMbps, installed.Flows[0].TputMbps)
	}
}

// TestEventsOnDownEdge pins down the semantics of retuning a downed
// edge: attack and set_rate events on an edge inside a link_down window
// apply immediately (the stages live behind the down gate) and take
// visible effect once the edge comes back up.
func TestEventsOnDownEdge(t *testing.T) {
	spec := targetedSpec("ABC", 10*sim.Second, 1)
	spec.Events = []EventSpec{
		{At: 2 * sim.Second, Kind: EventLinkDown, Edge: "fwd0"},
		{At: 2500 * sim.Millisecond, Kind: EventAttack, Edge: "fwd0",
			Attack: &topo.Attack{Target: topo.Target{Flows: []int{0}}, DropRate: 1}},
		{At: 2600 * sim.Millisecond, Kind: EventSetRate, Edge: "fwd0", RateMbps: 8},
		{At: 3 * sim.Second, Kind: EventLinkUp, Edge: "fwd0"},
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 4 {
		t.Fatalf("executed %d events, want 4: %+v", len(res.Events), res.Events)
	}
	if res.Ledger.Released[packet.LinkDown] == 0 {
		t.Error("the outage window should drop arrivals")
	}
	if res.Ledger.Released[packet.Adversary] == 0 {
		t.Error("the attack installed during the outage should drop flow 0's packets after link_up")
	}
	if res.Flows[0].TputMbps >= res.Flows[1].TputMbps/10 {
		t.Errorf("flow 0 should starve under the 100%% drop: %.2f vs bystander %.2f Mbit/s",
			res.Flows[0].TputMbps, res.Flows[1].TputMbps)
	}
}
