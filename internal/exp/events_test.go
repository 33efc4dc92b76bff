package exp

import (
	"math/rand"
	"strings"
	"testing"

	"abc/internal/abc"
	"abc/internal/metrics"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/sim"
)

// conservationSpec is the diamond used by the conservation property
// test: two sources reach one sink over two alternative two-hop routes
// each, every bottleneck a droptail rate link so drops are countable.
//
//	s1 ── eA ── m1 ── f1 ── d
//	  └── eB ── m2 ── f2 ──┘
//	s2 ── g1 ── m1 , s2 ── g2 ── m2
func conservationSpec(seed int64, stop, dur sim.Time) Spec {
	mk := func(name, from, to string, mbps float64) EdgeSpec {
		return EdgeSpec{Name: name, From: from, To: to, Link: LinkSpec{
			Rate:  netem.ConstRate(mbps * 1e6),
			Delay: sim.Millisecond,
			Qdisc: QdiscSpec{Kind: "droptail", Buffer: 50},
		}}
	}
	return Spec{
		Seed:     seed,
		Duration: dur,
		Warmup:   1, // count every delivery: conservation is exact, not windowed
		RTT:      20 * sim.Millisecond,
		Nodes:    []string{"s1", "s2", "m1", "m2", "d"},
		Edges: []EdgeSpec{
			mk("eA", "s1", "m1", 8), mk("eB", "s1", "m2", 6),
			mk("f1", "m1", "d", 5), mk("f2", "m2", "d", 5),
			mk("g1", "s2", "m1", 6), mk("g2", "s2", "m2", 4),
		},
		Flows: []FlowSpec{
			{Scheme: "Cubic", Path: []string{"eA", "f1"}, Stop: stop},
			{Scheme: "Cubic", Path: []string{"g2", "f2"}, Stop: stop},
		},
	}
}

// randomTimeline generates a random event sequence over the diamond:
// reroutes between each flow's two legal routes, flaps and rate changes
// — ending with every edge forced up so the network drains.
func randomTimeline(rng *rand.Rand, stop sim.Time) []EventSpec {
	edges := []string{"eA", "eB", "f1", "f2", "g1", "g2"}
	routes := [2][2][]string{
		{{"eA", "f1"}, {"eB", "f2"}},
		{{"g1", "f1"}, {"g2", "f2"}},
	}
	n := 1 + rng.Intn(8)
	evs := make([]EventSpec, 0, n+len(edges))
	for i := 0; i < n; i++ {
		at := sim.FromSeconds(0.05 + rng.Float64()*(stop.Seconds()-0.1))
		switch rng.Intn(4) {
		case 0, 1:
			flow := rng.Intn(2)
			evs = append(evs, EventSpec{At: at, Kind: EventReroute, Flow: flow,
				Path: routes[flow][rng.Intn(2)]})
		case 2:
			kind := EventLinkDown
			if rng.Intn(2) == 0 {
				kind = EventLinkUp
			}
			evs = append(evs, EventSpec{At: at, Kind: kind, Edge: edges[rng.Intn(len(edges))]})
		case 3:
			evs = append(evs, EventSpec{At: at, Kind: EventSetRate,
				Edge: edges[rng.Intn(len(edges))], RateMbps: 2 + 14*rng.Float64()})
		}
	}
	// Drain guarantee: whatever the timeline did, every edge is up once
	// the senders have stopped.
	for _, e := range edges {
		evs = append(evs, EventSpec{At: stop, Kind: EventLinkUp, Edge: e})
	}
	return evs
}

// TestRoutingConservationRandomTimelines is the routing layer's
// conservation property: over randomized reroute/flap/rate timelines, once the network has drained every transmitted data packet
// is accounted for exactly once — delivered, dropped by a qdisc, dropped
// at a downed link, or dropped unrouted at a junction. An imbalance in
// either direction (silent loss, duplication) fails the equality.
//
// Every second iteration layers the route-computation policy on top of
// the scripted timeline (emergent reroutes riding the same flap storm,
// with a randomized convergence latency), and every fourth iteration
// additionally makes those emergent changes make-before-break — the
// drain overrides must deliver or strand-and-count, never duplicate.
func TestRoutingConservationRandomTimelines(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 100
	}
	master := rand.New(rand.NewSource(7))
	for i := 0; i < iters; i++ {
		seed := master.Int63()
		rng := rand.New(rand.NewSource(master.Int63()))
		const stop = 1200 * sim.Millisecond
		spec := conservationSpec(seed, stop, 3*sim.Second)
		spec.Events = randomTimeline(rng, stop)
		if i%2 == 1 {
			spec.Routing = &RoutingSpec{
				Policy:           "shortest",
				RecomputeLatency: sim.FromSeconds(0.005 + 0.045*rng.Float64()),
			}
			if i%4 == 3 {
				spec.Routing.Drain = sim.FromSeconds(0.01 + 0.09*rng.Float64())
			}
		}
		res, _, err := Run(spec)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		var sent, deliveredBytes int64
		for f := range res.Flows {
			sent += res.Flows[f].Endpoint.SentPackets
			deliveredBytes += res.Flows[f].Bytes
		}
		if deliveredBytes%packet.MTU != 0 {
			t.Fatalf("iter %d: delivered %d bytes is not MTU-aligned", i, deliveredBytes)
		}
		var qdrops int64
		for _, q := range res.Qdiscs {
			qdrops += q.Counters().DroppedPackets
		}
		down := res.Ledger.Released[packet.LinkDown]
		accounted := deliveredBytes/packet.MTU + qdrops + res.Drops + down
		if sent != accounted {
			t.Fatalf("iter %d (events %+v): conservation violated: sent %d != delivered %d + qdrops %d + unrouted %d + down %d",
				i, spec.Events, sent, deliveredBytes/packet.MTU, qdrops, res.Drops, down)
		}
	}
}

// TestAckRerouteStaleEchoesDoNotBrake is the feedback-correctness
// regression for ACK-path changes: a downlink ABC flow whose echoes are
// being demoted on a congested reverse edge is rerouted onto a clean
// one; echoes still in flight on the old edge are stale. Once they have
// drained, nothing may keep braking the sender — ReverseBrakes must
// stop growing and the windowed throughput must recover well past its
// throttled level.
func TestAckRerouteStaleEchoesDoNotBrake(t *testing.T) {
	const rerouteAt = 12 * sim.Second
	spec := Spec{
		Seed:     1,
		Duration: 24 * sim.Second,
		Warmup:   2 * sim.Second,
		RTT:      60 * sim.Millisecond,
		Sample:   100 * sim.Millisecond,
		Nodes:    []string{"bs", "ue", "gw"},
		Edges: []EdgeSpec{
			{Name: "down", From: "bs", To: "ue",
				Link: LinkSpec{Rate: netem.ConstRate(12e6), Qdisc: QdiscSpec{Kind: "auto"}}},
			{Name: "upbad", From: "ue", To: "gw",
				Link: LinkSpec{Rate: netem.ConstRate(0.4e6), Qdisc: QdiscSpec{Kind: "abc"}}},
			{Name: "upgood", From: "ue", To: "gw",
				Link: LinkSpec{Rate: netem.ConstRate(20e6), Qdisc: QdiscSpec{Kind: "abc"}}},
		},
		Flows: []FlowSpec{
			{Scheme: "ABC", Path: []string{"down"}, AckPath: []string{"upbad"}},
			// Cross traffic keeps the bad uplink's ABC router braking.
			{Scheme: "ABC", Path: []string{"upbad"}, Source: &SourceSpec{Kind: "rate", Rate: 0.36e6}},
		},
		Events: []EventSpec{
			{At: rerouteAt, Kind: EventReroute, Flow: 0, Ack: true, Path: []string{"upgood"}},
		},
	}
	var brakesAfterSettle int64 = -1
	settleAt := rerouteAt + 3*sim.Second
	res := runProbed(t, spec, spec.Sample, func(now sim.Time, r *Result) {
		if now >= settleAt && brakesAfterSettle < 0 {
			brakesAfterSettle = r.Flows[0].Algorithm.(*abc.Sender).ReverseBrakes
		}
	})
	snd := res.Flows[0].Algorithm.(*abc.Sender)
	if snd.ReverseBrakes == 0 {
		t.Fatal("pre-reroute phase produced no demoted echoes; the scenario is not exercising the regression")
	}
	if brakesAfterSettle < 0 {
		t.Fatal("probe never sampled the settled state")
	}
	if snd.ReverseBrakes != brakesAfterSettle {
		t.Fatalf("stale-echo brakes kept arriving after the old ACK path drained: %d at settle, %d at end",
			brakesAfterSettle, snd.ReverseBrakes)
	}
	// Compare the throttled window just before the reroute against the
	// recovered one, skipping the settle transient.
	preWin := windowMean(res.Flows[0].Tput, rerouteAt-3*sim.Second, rerouteAt)
	postWin := windowMean(res.Flows[0].Tput, settleAt, spec.Duration)
	if postWin < 2*preWin {
		t.Fatalf("throughput did not recover after the ACK reroute: %.2f Mbit/s throttled, %.2f after",
			preWin, postWin)
	}
}

// windowMean averages a throughput series over [from, to).
func windowMean(ts *metrics.Timeseries, from, to sim.Time) float64 {
	var sum float64
	var n int
	for i, at := range ts.Times {
		when := sim.FromSeconds(at)
		if when >= from && when < to {
			sum += ts.Values[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestEventValidation: malformed timelines are Spec errors before the
// run starts, with messages naming the offending event.
func TestEventValidation(t *testing.T) {
	base := func() Spec {
		return Spec{
			Seed:     1,
			Duration: 2 * sim.Second,
			Nodes:    []string{"a", "b"},
			Edges: []EdgeSpec{
				{Name: "e1", From: "a", To: "b",
					Link: LinkSpec{Rate: netem.ConstRate(8e6), Qdisc: QdiscSpec{Kind: "droptail"}}},
				{Name: "e2", From: "a", To: "b",
					Link: LinkSpec{Kind: "wire", Delay: 5 * sim.Millisecond}},
				{Name: "back", From: "b", To: "a",
					Link: LinkSpec{Kind: "wire", Delay: 5 * sim.Millisecond}},
			},
			Flows: []FlowSpec{{Scheme: "Cubic", Path: []string{"e1"}}},
		}
	}
	cases := []struct {
		name string
		ev   EventSpec
		want string
	}{
		{"unknown kind", EventSpec{Kind: "warp"}, "unknown event kind"},
		{"negative time", EventSpec{At: -1, Kind: EventLinkDown, Edge: "e1"}, "negative time"},
		{"unknown edge", EventSpec{Kind: EventLinkDown, Edge: "nope"}, "unknown edge"},
		{"missing edge", EventSpec{Kind: EventLinkUp}, "missing edge"},
		{"flow out of range", EventSpec{Kind: EventReroute, Flow: 7, Path: []string{"e2"}}, "out of range"},
		{"reroute empty path", EventSpec{Kind: EventReroute}, "missing path"},
		{"reroute unknown edge", EventSpec{Kind: EventReroute, Path: []string{"zz"}}, "unknown edge"},
		{"reroute non-contiguous", EventSpec{Kind: EventReroute, Path: []string{"e1", "e2"}}, "not contiguous"},
		{"reroute wrong origin", EventSpec{Kind: EventReroute, Path: []string{"back"}}, "must start at its origin"},
		{"reroute loop to origin", EventSpec{Kind: EventReroute, Path: []string{"e1", "back"}}, "loops back"},
		{"reroute direct ack", EventSpec{Kind: EventReroute, Ack: true, Path: []string{"e2"}}, "direct wire"},
		{"reroute stray edge field", EventSpec{Kind: EventReroute, Path: []string{"e2"}, Edge: "e1"}, "not reroute fields"},
		{"set_rate on wire", EventSpec{Kind: EventSetRate, Edge: "e2", RateMbps: 3}, "not a rate link"},
		{"set_rate nonpositive", EventSpec{Kind: EventSetRate, Edge: "e1"}, "rate_mbps > 0"},
		{"set_rate stray path", EventSpec{Kind: EventSetRate, Edge: "e1", RateMbps: 2, Path: []string{"e2"}}, "reroute fields"},
		{"link_down stray flow", EventSpec{Kind: EventLinkDown, Edge: "e1", Flow: 1}, "reroute fields"},
		{"link_down stray rate", EventSpec{Kind: EventLinkDown, Edge: "e1", RateMbps: 2}, "not a link_down"},
	}
	for _, tc := range cases {
		spec := base()
		spec.Events = []EventSpec{tc.ev}
		_, _, err := Run(spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// The valid forms of each kind run clean.
	spec := base()
	spec.Events = []EventSpec{
		{At: 200 * sim.Millisecond, Kind: EventSetRate, Edge: "e1", RateMbps: 4},
		{At: 600 * sim.Millisecond, Kind: EventLinkDown, Edge: "e1"},
		{At: 800 * sim.Millisecond, Kind: EventLinkUp, Edge: "e1"},
		{At: sim.Second, Kind: EventReroute, Flow: 0, Path: []string{"e2"}},
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != len(spec.Events) {
		t.Fatalf("executed %d events, want %d: %+v", len(res.Events), len(spec.Events), res.Events)
	}
}

// TestChainEventAddressing: chain links answer to the canonical
// "fwd<i>"/"rev<i>" edge names.
func TestChainEventAddressing(t *testing.T) {
	spec := Spec{
		Seed:         1,
		Duration:     2 * sim.Second,
		Warmup:       1,
		Links:        []LinkSpec{{Rate: netem.ConstRate(8e6), Qdisc: QdiscSpec{Kind: "droptail"}}},
		ReverseLinks: []LinkSpec{{Rate: netem.ConstRate(8e6), Qdisc: QdiscSpec{Kind: "droptail"}}},
		Flows:        []FlowSpec{{Scheme: "Cubic"}},
		Events: []EventSpec{
			{At: 500 * sim.Millisecond, Kind: EventLinkDown, Edge: "fwd0"},
			{At: 700 * sim.Millisecond, Kind: EventLinkUp, Edge: "fwd0"},
			{At: 900 * sim.Millisecond, Kind: EventSetRate, Edge: "rev0", RateMbps: 1},
		},
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Released[packet.LinkDown] == 0 {
		t.Fatal("link_down on fwd0 dropped nothing; chain addressing is broken")
	}
	if len(res.Events) != 3 {
		t.Fatalf("executed %d events, want 3", len(res.Events))
	}
}

// TestQueueDelayFollowsSetRate: the standing-queue-delay series reads
// its rate link's current rate, so after a set_rate event halves the
// first bottleneck every sample is queued bytes × 8 / the new rate.
func TestQueueDelayFollowsSetRate(t *testing.T) {
	const setAt = sim.Second
	spec := Spec{
		Seed:     1,
		Duration: 2 * sim.Second,
		Warmup:   1,
		Sample:   10 * sim.Millisecond,
		Links:    []LinkSpec{{Rate: 12e6, Qdisc: QdiscSpec{Kind: "droptail"}}},
		Flows:    []FlowSpec{{Scheme: "Cubic"}},
		Events:   []EventSpec{{At: setAt, Kind: EventSetRate, Edge: "fwd0", RateMbps: 6}},
	}
	c, err := compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := c.edgeQ[0]
	// Registered first, so it is read before QueueDelayTS at each
	// sample instant, with nothing executed in between.
	queued := c.sampled(func(sim.Time) float64 { return float64(q.Bytes()) })
	res, _, err := c.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.QueueDelayTS
	if len(got.Values) != len(queued.Values) {
		t.Fatalf("%d queue-delay samples, %d queue samples", len(got.Values), len(queued.Values))
	}
	checked := 0
	for i, at := range got.Times {
		rate := 12e6
		if at >= setAt.Seconds() {
			rate = 6e6
			if queued.Values[i] > 0 {
				checked++
			}
		}
		if want := queued.Values[i] * 8 / rate * 1000; got.Values[i] != want {
			t.Fatalf("sample at %.2f s: queue delay %v ms, want %v ms (%v bytes at %v bit/s)",
				at, got.Values[i], want, queued.Values[i], rate)
		}
	}
	if checked == 0 {
		t.Fatal("the queue was empty at every sample after the set_rate event")
	}
}
