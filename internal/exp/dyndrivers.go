// Dynamic-topology drivers: experiments whose topology changes mid-run
// through the Spec event timeline, exercising the forwarding-table
// routing layer end to end. handover migrates a flow between two base
// stations (both the data and the ACK route move atomically, in-flight
// packets on the abandoned path are counted losses); linkFlap runs a
// chain whose single cellular link suffers timed outages. autoRoute and
// flapStorm are their route-computation counterparts: the events script
// only link state, and the Routing policy (kfailover / shortest) moves
// the routes itself — handover and flap recovery as emergent behavior.
// All four have declarative twins in examples/scenarios/
// (handover.json, flap.json, autoroute.json, flapstorm.json).
package exp

import (
	"fmt"
	"io"

	"abc/internal/metrics"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/trace"
)

// HandoverResult is one scheme's outcome on the handover scenario.
type HandoverResult struct {
	// Flow summarizes the migrating flow over the whole run.
	Flow metrics.Summary
	// PreMbps / PostMbps are the flow's mean throughput over the windows
	// before and after the handover instant (excluding warmup).
	PreMbps, PostMbps float64
	// HandoverDrops counts packets stranded in flight on the abandoned
	// path when the route moved (Result.Drops: they drain to the next
	// junction and are counted there).
	HandoverDrops int64
	// Retx is the sender's retransmission count — the transport-level
	// cost of the handover losses.
	Retx int64
	// Events annotates the executed timeline.
	Events []EventResult
}

// handoverSpec builds the two-base-station topology for one scheme: a
// core junction fans out to bs1 (Verizon1 trace) and bs2 (TMobile2
// trace), each reaching the UE over a short wire; the flow starts on
// bs1 and at handoverAt both its data route and its ACK route move to
// bs2. The UE-side uplink wires carry the ACKs back through the core.
func handoverSpec(scheme string, handoverAt, dur sim.Time, seed int64) Spec {
	return Spec{
		Seed:     seed,
		Duration: dur,
		RTT:      80 * sim.Millisecond,
		Sample:   100 * sim.Millisecond,
		Nodes:    []string{"core", "bs1", "bs2", "ue", "ret"},
		Edges: []EdgeSpec{
			{Name: "cell1", From: "core", To: "bs1",
				Link: LinkSpec{Trace: trace.MustNamedCellular("Verizon1"), Qdisc: QdiscSpec{Kind: "auto"}}},
			{Name: "cell2", From: "core", To: "bs2",
				Link: LinkSpec{Trace: trace.MustNamedCellular("TMobile2"), Qdisc: QdiscSpec{Kind: "auto"}}},
			{Name: "air1", From: "bs1", To: "ue",
				Link: LinkSpec{Kind: "wire", Delay: 5 * sim.Millisecond}},
			{Name: "air2", From: "bs2", To: "ue",
				Link: LinkSpec{Kind: "wire", Delay: 8 * sim.Millisecond}},
			{Name: "up1", From: "ue", To: "bs1",
				Link: LinkSpec{Kind: "wire", Delay: 5 * sim.Millisecond}},
			{Name: "up2", From: "ue", To: "bs2",
				Link: LinkSpec{Kind: "wire", Delay: 8 * sim.Millisecond}},
			{Name: "ret1", From: "bs1", To: "ret",
				Link: LinkSpec{Kind: "wire", Delay: 2 * sim.Millisecond}},
			{Name: "ret2", From: "bs2", To: "ret",
				Link: LinkSpec{Kind: "wire", Delay: 2 * sim.Millisecond}},
		},
		Flows: []FlowSpec{
			{Scheme: scheme, Path: []string{"cell1", "air1"}, AckPath: []string{"up1", "ret1"}},
		},
		Events: []EventSpec{
			{At: handoverAt, Kind: EventReroute, Flow: 0, Path: []string{"cell2", "air2"}},
			{At: handoverAt, Kind: EventReroute, Flow: 0, Ack: true, Path: []string{"up2", "ret2"}},
		},
	}
}

// handover runs each scheme's backlogged flow through a mid-run
// base-station handover: at half the duration the flow's data and ACK
// routes move from the Verizon1 cell to the TMobile2 cell in one atomic
// table swap. Packets in flight on the abandoned path are genuine
// handover losses (counted, never duplicated), and the driver reports
// how quickly each scheme's throughput re-converges on the new cell.
func handover(p Params) (map[string]HandoverResult, error) {
	if p.Dur <= 0 {
		p.Dur = 30 * sim.Second
	}
	handoverAt := p.Dur / 2
	return sweepMap("handover", p, []string{"ABC", "Cubic"}, func(sch string) (HandoverResult, error) {
		res, _, err := p.Run(handoverSpec(sch, handoverAt, p.Dur, p.Seed))
		if err != nil {
			return HandoverResult{}, err
		}
		f0 := &res.Flows[0]
		r := HandoverResult{
			Flow:          flowSummary(sch, res, f0),
			HandoverDrops: res.Drops,
			Retx:          f0.Retx,
			Events:        res.Events,
		}
		// res.Spec carries the normalized Warmup (Run defaults it on its
		// own copy); the driver-local spec still says zero.
		r.PreMbps, r.PostMbps = splitMean(f0.Tput, handoverAt, res.Spec.Warmup)
		return r, nil
	})
}

// flowSummary is the paper's summary row for one flow of a run: the
// run's utilization with that flow's own throughput and delays.
func flowSummary(scheme string, res *Result, f *FlowResult) metrics.Summary {
	return metrics.Summary{
		Scheme:      scheme,
		Utilization: res.Utilization,
		TputMbps:    f.TputMbps,
		MeanMs:      f.Delay.Mean(),
		P95Ms:       f.Delay.P95(),
	}
}

// splitMean averages a sampled throughput series before and after the
// split instant, ignoring samples before warmup.
func splitMean(ts *metrics.Timeseries, split, warmup sim.Time) (pre, post float64) {
	if ts == nil {
		return 0, 0
	}
	var preSum, postSum float64
	var preN, postN int
	for i, at := range ts.Times {
		when := sim.FromSeconds(at)
		if when < warmup {
			continue
		}
		if when < split {
			preSum += ts.Values[i]
			preN++
		} else {
			postSum += ts.Values[i]
			postN++
		}
	}
	if preN > 0 {
		pre = preSum / float64(preN)
	}
	if postN > 0 {
		post = postSum / float64(postN)
	}
	return pre, post
}

// FlapResult is one scheme's outcome on the flapping-link scenario.
type FlapResult struct {
	// Flow summarizes the flow over the whole run, outages included.
	Flow metrics.Summary
	// OutageDrops counts packets dropped at the downed link's entry
	// (the ledger's packet.LinkDown entry).
	OutageDrops int64
	// Lost / Retx are the sender's loss-detection and retransmission
	// counts.
	Lost, Retx int64
	// Events annotates the executed timeline.
	Events []EventResult
}

// linkFlap runs each scheme's backlogged flow over a chain whose single
// rate link goes down for two 500 ms outage windows (at one third and
// two thirds of the run), addressed through the chain's canonical edge
// name "fwd0". It measures how each scheme rides out the outages: drops
// at the dead link, timeout-driven retransmissions, and the delay cost
// of the queue that rebuilds on recovery.
func linkFlap(p Params) (map[string]FlapResult, error) {
	if p.Dur <= 0 {
		p.Dur = 30 * sim.Second
	}
	const outage = 500 * sim.Millisecond
	return sweepMap("linkflap", p, []string{"ABC", "Cubic"}, func(sch string) (FlapResult, error) {
		res, _, err := p.Run(Spec{
			Seed:     p.Seed,
			Duration: p.Dur,
			RTT:      80 * sim.Millisecond,
			Links: []LinkSpec{{
				Rate:  12e6,
				Qdisc: QdiscSpec{Kind: "auto"},
			}},
			Flows: []FlowSpec{{Scheme: sch}},
			Events: []EventSpec{
				{At: p.Dur / 3, Kind: EventLinkDown, Edge: "fwd0"},
				{At: p.Dur/3 + outage, Kind: EventLinkUp, Edge: "fwd0"},
				{At: 2 * p.Dur / 3, Kind: EventLinkDown, Edge: "fwd0"},
				{At: 2*p.Dur/3 + outage, Kind: EventLinkUp, Edge: "fwd0"},
			},
		})
		if err != nil {
			return FlapResult{}, err
		}
		f0 := &res.Flows[0]
		return FlapResult{
			Flow:        flowSummary(sch, res, f0),
			OutageDrops: res.Ledger.Released[packet.LinkDown],
			Lost:        f0.Lost,
			Retx:        f0.Retx,
			Events:      res.Events,
		}, nil
	})
}

// AutoRouteResult is one scheme's outcome on the emergent-handover
// scenario: no scripted reroutes — the k-failover policy moves the
// routes itself when the serving cell's links go down, and moves them
// back (make-before-break) on recovery.
type AutoRouteResult struct {
	// Flow summarizes the migrating flow over the whole run.
	Flow metrics.Summary
	// PreMbps / PostMbps are the flow's mean throughput before and after
	// the outage instant (excluding warmup).
	PreMbps, PostMbps float64
	// OutageDrops counts packets that hit the downed links' gates during
	// the policy's convergence window (the ledger's packet.LinkDown entry).
	OutageDrops int64
	// StrandedDrops counts packets stranded at junctions by the route
	// changes (Result.Drops) — with the make-before-break drain window
	// this stays at the stragglers the window doesn't cover.
	StrandedDrops int64
	// Retx is the sender's retransmission count.
	Retx int64
	// RouteChanges annotates every route the policy moved.
	RouteChanges []RouteChangeResult
}

// autoRouteSpec is the handover topology without its scripted reroutes:
// the cell1/up1 outage is scripted, the handover itself is emergent
// (kfailover with one precomputed backup per route, 20 ms control-plane
// convergence, 50 ms make-before-break drain).
func autoRouteSpec(scheme string, outageAt, recoverAt, dur sim.Time, seed int64) Spec {
	spec := handoverSpec(scheme, 0, dur, seed)
	spec.Events = []EventSpec{
		{At: outageAt, Kind: EventLinkDown, Edge: "cell1"},
		{At: outageAt, Kind: EventLinkDown, Edge: "up1"},
		{At: recoverAt, Kind: EventLinkUp, Edge: "cell1"},
		{At: recoverAt, Kind: EventLinkUp, Edge: "up1"},
	}
	spec.Routing = &RoutingSpec{
		Policy:           "kfailover",
		K:                1,
		RecomputeLatency: 20 * sim.Millisecond,
		Drain:            50 * sim.Millisecond,
	}
	return spec
}

// autoRoute runs each scheme through an *emergent* base-station
// handover: at half the duration the serving cell's downlink and uplink
// go dark, and the route-computation layer — not an event timeline —
// fails the flow's data and ACK routes over to the precomputed backup
// cell, draining the old paths make-before-break. At three quarters the
// links recover and the policy moves the routes back. The reported
// RouteChanges are part of the golden digest: the emergent timeline is
// locked exactly like a scripted one.
func autoRoute(p Params) (map[string]AutoRouteResult, error) {
	if p.Dur <= 0 {
		p.Dur = 30 * sim.Second
	}
	outageAt, recoverAt := p.Dur/2, p.Dur-p.Dur/4
	return sweepMap("autoroute", p, []string{"ABC", "Cubic"}, func(sch string) (AutoRouteResult, error) {
		res, _, err := p.Run(autoRouteSpec(sch, outageAt, recoverAt, p.Dur, p.Seed))
		if err != nil {
			return AutoRouteResult{}, err
		}
		f0 := &res.Flows[0]
		r := AutoRouteResult{
			Flow:          flowSummary(sch, res, f0),
			OutageDrops:   res.Ledger.Released[packet.LinkDown],
			StrandedDrops: res.Drops,
			Retx:          f0.Retx,
			RouteChanges:  res.RouteChanges,
		}
		r.PreMbps, r.PostMbps = splitMean(f0.Tput, outageAt, res.Spec.Warmup)
		return r, nil
	})
}

// FlapStormResult is one scheme's outcome on the flap-storm scenario.
type FlapStormResult struct {
	// Flow summarizes the flow over the whole run, outages included.
	Flow metrics.Summary
	// OutageDrops counts packets dropped at downed links' gates (the
	// ledger's packet.LinkDown entry); StrandedDrops the packets stranded
	// at junctions by emergent reroutes (Result.Drops).
	OutageDrops, StrandedDrops int64
	// Lost / Retx are the sender's loss-detection and retransmission
	// counts.
	Lost, Retx int64
	// RouteChanges annotates every route the policy moved. Flaps shorter
	// than the convergence window are absorbed and appear only as outage
	// drops, not route changes.
	RouteChanges []RouteChangeResult
}

// flapStorm runs each scheme over a two-path mesh whose primary link
// suffers a storm of outages — two long enough that the shortest-path
// policy fails over to the slower backup path and back, and one shorter
// than the 30 ms convergence window, which the coalescing recompute
// absorbs entirely (the route must not move for it). Scripted events
// supply only the link state; every route change is emergent.
func flapStorm(p Params) (map[string]FlapStormResult, error) {
	if p.Dur <= 0 {
		p.Dur = 30 * sim.Second
	}
	const outage = 300 * sim.Millisecond
	const blip = 20 * sim.Millisecond // under the 30 ms convergence window
	return sweepMap("flapstorm", p, []string{"ABC", "Cubic"}, func(sch string) (FlapStormResult, error) {
		res, _, err := p.Run(Spec{
			Seed:     p.Seed,
			Duration: p.Dur,
			RTT:      80 * sim.Millisecond,
			Sample:   100 * sim.Millisecond,
			Nodes:    []string{"src", "m1", "m2", "dst"},
			Edges: []EdgeSpec{
				{Name: "pA", From: "src", To: "m1",
					Link: LinkSpec{Rate: 12e6, Delay: 2 * sim.Millisecond, Qdisc: QdiscSpec{Kind: "auto"}}},
				{Name: "pB", From: "m1", To: "dst",
					Link: LinkSpec{Kind: "wire", Delay: 2 * sim.Millisecond}},
				{Name: "qA", From: "src", To: "m2",
					Link: LinkSpec{Rate: 10e6, Delay: 8 * sim.Millisecond, Qdisc: QdiscSpec{Kind: "auto"}}},
				{Name: "qB", From: "m2", To: "dst",
					Link: LinkSpec{Kind: "wire", Delay: 8 * sim.Millisecond}},
			},
			Flows: []FlowSpec{{Scheme: sch, Path: []string{"pA", "pB"}}},
			Events: []EventSpec{
				{At: p.Dur / 4, Kind: EventLinkDown, Edge: "pA"},
				{At: p.Dur/4 + outage, Kind: EventLinkUp, Edge: "pA"},
				{At: p.Dur / 2, Kind: EventLinkDown, Edge: "pA"},
				{At: p.Dur/2 + blip, Kind: EventLinkUp, Edge: "pA"},
				{At: p.Dur - p.Dur/4, Kind: EventLinkDown, Edge: "pA"},
				{At: p.Dur - p.Dur/4 + outage, Kind: EventLinkUp, Edge: "pA"},
			},
			Routing: &RoutingSpec{
				Policy:           "shortest",
				RecomputeLatency: 30 * sim.Millisecond,
			},
		})
		if err != nil {
			return FlapStormResult{}, err
		}
		f0 := &res.Flows[0]
		return FlapStormResult{
			Flow:          flowSummary(sch, res, f0),
			OutageDrops:   res.Ledger.Released[packet.LinkDown],
			StrandedDrops: res.Drops,
			Lost:          f0.Lost,
			Retx:          f0.Retx,
			RouteChanges:  res.RouteChanges,
		}, nil
	})
}

// printHandover renders each scheme's handover row, then the executed
// timeline (the same script for every scheme).
func printHandover(w io.Writer, out map[string]HandoverResult) {
	names := sortedKeys(out)
	for _, sch := range names {
		r := out[sch]
		fmt.Fprintf(w, "%-14s tput=%6.2f Mbit/s (pre %5.2f, post %5.2f)  p95=%6.1f ms  handover drops=%d  retx=%d\n",
			sch, r.Flow.TputMbps, r.PreMbps, r.PostMbps, r.Flow.P95Ms, r.HandoverDrops, r.Retx)
	}
	printEvents(w, out[names[0]].Events)
}

// printFlap renders each scheme's flapping-link row.
func printFlap(w io.Writer, out map[string]FlapResult) {
	for _, sch := range sortedKeys(out) {
		r := out[sch]
		fmt.Fprintf(w, "%-14s tput=%6.2f Mbit/s  p95=%6.1f ms  outage drops=%d  lost=%d  retx=%d\n",
			sch, r.Flow.TputMbps, r.Flow.P95Ms, r.OutageDrops, r.Lost, r.Retx)
	}
}

// printAutoRoute renders each scheme's emergent-handover row, then the
// first scheme's route changes.
func printAutoRoute(w io.Writer, out map[string]AutoRouteResult) {
	names := sortedKeys(out)
	for _, sch := range names {
		r := out[sch]
		fmt.Fprintf(w, "%-14s tput=%6.2f Mbit/s (pre %5.2f, post %5.2f)  p95=%6.1f ms  route changes=%d  outage drops=%d  stranded=%d  retx=%d\n",
			sch, r.Flow.TputMbps, r.PreMbps, r.PostMbps, r.Flow.P95Ms, len(r.RouteChanges), r.OutageDrops, r.StrandedDrops, r.Retx)
	}
	printRouteChanges(w, out[names[0]].RouteChanges)
}

// printFlapStorm renders each scheme's flap-storm row, then the first
// scheme's route changes.
func printFlapStorm(w io.Writer, out map[string]FlapStormResult) {
	names := sortedKeys(out)
	for _, sch := range names {
		r := out[sch]
		fmt.Fprintf(w, "%-14s tput=%6.2f Mbit/s  p95=%6.1f ms  route changes=%d  outage drops=%d  stranded=%d  lost=%d  retx=%d\n",
			sch, r.Flow.TputMbps, r.Flow.P95Ms, len(r.RouteChanges), r.OutageDrops, r.StrandedDrops, r.Lost, r.Retx)
	}
	printRouteChanges(w, out[names[0]].RouteChanges)
}
