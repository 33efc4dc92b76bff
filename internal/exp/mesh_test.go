package exp

import (
	"reflect"
	"strings"
	"testing"

	"abc/internal/abc"
	"abc/internal/netem"
	"abc/internal/sim"
)

// TestMeshSharedJunctionFairness runs the shared-junction mesh: two
// disjoint two-hop paths through one junction plus a crossing flow. The
// two inA flows split 16 Mbit/s and the inB flow owns 8 Mbit/s, so every
// flow should land near 8 Mbit/s; the disjoint paths must not interfere
// at the junction (routing is per flow, junctions have no queues).
func TestMeshSharedJunctionFairness(t *testing.T) {
	out, err := meshSharedJunction(Params{Schemes: []string{"ABC"}, Dur: 10 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := out["ABC"]
	if r.Drops != 0 {
		t.Fatalf("unrouted drops on a validated mesh: %d", r.Drops)
	}
	if len(r.Flows) != 3 {
		t.Fatalf("got %d flows, want 3", len(r.Flows))
	}
	for _, f := range r.Flows {
		t.Logf("%-10s tput=%.2f Mbit/s mean=%.1f ms", f.Path, f.TputMbps, f.MeanMs)
		if f.TputMbps < 5.5 || f.TputMbps > 10.5 {
			t.Errorf("flow %s tput %.2f Mbit/s outside the ~8 Mbit/s fair share", f.Path, f.TputMbps)
		}
	}
}

// TestMeshRejectsMalformedRoutes exercises the up-front route validation:
// unknown edges, non-contiguous sequences and loops are Spec errors.
func TestMeshRejectsMalformedRoutes(t *testing.T) {
	base := func() Spec {
		s := meshJunctionSpec("ABC", 2*sim.Second, 1)
		return s
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown edge", func(s *Spec) { s.Flows[0].Path = []string{"nope"} }, "unknown edge"},
		{"not contiguous", func(s *Spec) { s.Flows[0].Path = []string{"outA", "inA"} }, "not contiguous"},
		{"loop", func(s *Spec) {
			s.Edges = append(s.Edges, EdgeSpec{Name: "back", From: "dstA", To: "hub",
				Link: LinkSpec{Kind: "wire"}})
			s.Edges = append(s.Edges, EdgeSpec{Name: "fwd", From: "hub", To: "dstA",
				Link: LinkSpec{Kind: "wire"}})
			s.Flows[0].Path = []string{"inA", "outA", "back", "fwd"}
		}, "loops back"},
		{"chain fields on mesh flow", func(s *Spec) { s.Flows[0].EnterAt = 1 }, "chain fields"},
		{"disconnected ack path", func(s *Spec) {
			// Flow 0's data ends at dstA; an ACK route starting on the
			// hub→dstB edge would teleport ACKs from dstA to hub.
			s.Flows[0].AckPath = []string{"outB"}
		}, "ack path starts at"},
		{"mesh flow without path", func(s *Spec) { s.Flows[0].Path = nil }, "need a Path"},
		{"wire with qdisc", func(s *Spec) {
			s.Edges[2].Link.Qdisc = QdiscSpec{Kind: "droptail"}
		}, "no qdisc"},
		{"wire with bottleneck", func(s *Spec) {
			s.Edges[2].Link.Rate = netem.ConstRate(1e6)
		}, "no bottleneck"},
	}
	for _, tc := range cases {
		spec := base()
		tc.mut(&spec)
		_, _, err := Run(spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got err %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestMarkedUplinkDemotesEchoes is the reverse-path marking contract: an
// ABC router on the edge carrying a downlink flow's ACKs demotes echoed
// accelerates when the uplink is congested, and the sender counts them
// as reverse brakes — feedback reflects the full round trip, not an
// assumed lossless reverse channel.
func TestMarkedUplinkDemotesEchoes(t *testing.T) {
	out, err := markedUplink(Params{Schemes: []string{"ABC"}, Dur: 12 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := out["ABC"]
	t.Logf("down tput=%.2f Mbit/s p95=%.0f ms reverseBrakes=%d demoted=%d kept=%d up=%.2f Mbit/s",
		r.Down.TputMbps, r.Down.P95Ms, r.ReverseBrakes, r.EchoDemoted, r.EchoKept, r.UpTputMbps)
	if r.Down.TputMbps <= 0 {
		t.Fatal("downlink made no progress")
	}
	if r.EchoDemoted == 0 {
		t.Error("uplink ABC router never demoted an echoed accelerate")
	}
	if r.ReverseBrakes == 0 {
		t.Error("sender never saw a reverse-path demotion")
	}
	if r.ReverseBrakes != r.EchoDemoted {
		// Every demotion the router performs must arrive at the sender as
		// a reverse brake (the reverse wire is lossless in this setup).
		t.Errorf("reverse brakes %d != router demotions %d", r.ReverseBrakes, r.EchoDemoted)
	}
}

// TestMarkedUplinkDeterministic reruns the marked-uplink scenario and
// requires identical results: mesh runs must be a pure function of the
// spec, like chain runs.
func TestMarkedUplinkDeterministic(t *testing.T) {
	a, err := markedUplink(Params{Schemes: []string{"ABC"}, Dur: 6 * sim.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := markedUplink(Params{Schemes: []string{"ABC"}, Dur: 6 * sim.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("mesh rerun diverged:\n%+v\n%+v", a, b)
	}
}

// TestTwoABCRouterChainPacesToTighterLink is the Theorem 3.1 setting: a
// chain of two ABC routers with different capacities. The accel fraction
// a sender sees is the minimum of f(t) along the path — marks are only
// ever demoted — so the flow must pace to the tighter link no matter
// which position it occupies, and the tighter router must be the one
// demoting.
func TestTwoABCRouterChainPacesToTighterLink(t *testing.T) {
	for name, rates := range map[string][2]float64{
		"tight last":  {20e6, 10e6},
		"tight first": {10e6, 20e6},
	} {
		res, _, err := Run(Spec{
			Seed:     1,
			Duration: 12 * sim.Second,
			RTT:      60 * sim.Millisecond,
			Links: []LinkSpec{
				{Rate: netem.ConstRate(rates[0]), Qdisc: QdiscSpec{Kind: "abc"}},
				{Rate: netem.ConstRate(rates[1]), Qdisc: QdiscSpec{Kind: "abc"}},
			},
			Flows: []FlowSpec{{Scheme: "ABC"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		tput := res.Flows[0].TputMbps
		t.Logf("%s: tput=%.2f Mbit/s", name, tput)
		if tput > 10.5 {
			t.Errorf("%s: %.2f Mbit/s exceeds the 10 Mbit/s tighter link", name, tput)
		}
		if tput < 8 {
			t.Errorf("%s: %.2f Mbit/s leaves the tighter link badly underutilized", name, tput)
		}
		tight := 1
		if rates[0] < rates[1] {
			tight = 0
		}
		r := res.Qdiscs[tight].(*abc.Router)
		if r.BrakeMarked == 0 {
			t.Errorf("%s: tighter router never demoted a data mark", name)
		}
	}
}
