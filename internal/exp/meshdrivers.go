// Mesh scenario drivers: experiments whose topology is a general graph
// rather than a chain, exercising the Nodes/Edges Spec form end to end.
// meshSharedJunction routes flows over partly-disjoint multi-hop paths
// through one junction; markedUplink puts an ABC router on the uplink
// edge that carries a downlink flow's ACKs, so the receiver's echoed
// accelerates are demoted in flight and the sender paces to the minimum
// of marks over the full round trip (§3.1.2's multi-bottleneck rule
// extended to the reverse path). Both have declarative twins in
// examples/scenarios/ (mesh.json, marked-uplink.json).
package exp

import (
	"fmt"
	"io"
	"strings"

	"abc/internal/abc"
	"abc/internal/metrics"
	"abc/internal/sim"
	"abc/internal/trace"
)

// MeshFlowSummary is one flow's outcome on a mesh scenario.
type MeshFlowSummary struct {
	// Path is the flow's data route, "edge>edge>..." for reports.
	Path     string
	TputMbps float64
	MeanMs   float64
	P95Ms    float64
}

// MeshResult is the outcome of one scheme's shared-junction run.
type MeshResult struct {
	// Flows reports each flow in spec order: the A-path flow, the B-path
	// flow, then the crossing flow.
	Flows []MeshFlowSummary
	// Drops counts unrouted arrivals (must be zero: the compiler
	// validates routes up front).
	Drops int64
}

// meshJunctionSpec builds the shared-junction topology for one scheme:
// two access bottlenecks (16 and 8 Mbit/s) feed a junction from which
// plain wires fan out, and three flows route through it — two on fully
// disjoint two-hop paths plus one crossing flow that shares an edge with
// each. The junction itself is just a graph node: routing is per flow,
// so disjoint paths never queue behind each other.
func meshJunctionSpec(scheme string, dur sim.Time, seed int64) Spec {
	return Spec{
		Seed:     seed,
		Duration: dur,
		RTT:      60 * sim.Millisecond,
		Nodes:    []string{"srcA", "srcB", "hub", "dstA", "dstB"},
		Edges: []EdgeSpec{
			{Name: "inA", From: "srcA", To: "hub",
				Link: LinkSpec{Rate: 16e6, Qdisc: QdiscSpec{Kind: "auto"}}},
			{Name: "inB", From: "srcB", To: "hub",
				Link: LinkSpec{Rate: 8e6, Qdisc: QdiscSpec{Kind: "auto"}}},
			{Name: "outA", From: "hub", To: "dstA",
				Link: LinkSpec{Kind: "wire", Delay: 5 * sim.Millisecond}},
			{Name: "outB", From: "hub", To: "dstB",
				Link: LinkSpec{Kind: "wire", Delay: 5 * sim.Millisecond}},
		},
		Flows: []FlowSpec{
			{Scheme: scheme, Path: []string{"inA", "outA"}},
			{Scheme: scheme, Path: []string{"inB", "outB"}},
			{Scheme: scheme, Path: []string{"inA", "outB"}},
		},
	}
}

// meshSharedJunction runs the shared-junction mesh for each scheme. The
// two inA flows split 16 Mbit/s while the inB flow keeps its 8 Mbit/s
// bottleneck to itself, so a fair scheme lands all three near 8 Mbit/s —
// cross-path interference at the junction would show up as deviation.
func meshSharedJunction(p Params) (map[string]MeshResult, error) {
	if p.Dur <= 0 {
		p.Dur = 30 * sim.Second
	}
	return sweepMap("mesh-junction", p, []string{"ABC", "Cubic"}, func(sch string) (MeshResult, error) {
		spec := meshJunctionSpec(sch, p.Dur, p.Seed)
		res, _, err := p.Run(spec)
		if err != nil {
			return MeshResult{}, err
		}
		r := MeshResult{Drops: res.Drops}
		for f := range res.Flows {
			fr := &res.Flows[f]
			r.Flows = append(r.Flows, MeshFlowSummary{
				Path:     strings.Join(spec.Flows[f].Path, ">"),
				TputMbps: fr.TputMbps,
				MeanMs:   fr.Delay.Mean(),
				P95Ms:    fr.Delay.P95(),
			})
		}
		return r, nil
	})
}

// MarkedUplinkResult is one scheme's outcome on the marked-uplink
// scenario.
type MarkedUplinkResult struct {
	// Down summarizes the downlink flow under test.
	Down metrics.Summary
	// QDelayP95 is the downlink flow's p95 accumulated queuing delay (ms).
	QDelayP95 float64
	// UpTputMbps is the uplink cross flow's throughput.
	UpTputMbps float64
	// ReverseBrakes counts downlink accelerates the receiver echoed but
	// the uplink ABC router demoted in flight (ABC schemes only).
	ReverseBrakes int64
	// EchoDemoted / EchoKept are the uplink router's Algorithm 1
	// decisions on ACK-borne echoes.
	EchoDemoted int64
	EchoKept    int64
}

// markedUplink runs each scheme's backlogged downlink over a cellular
// trace while its ACKs return over a slow uplink edge hosting an ABC
// router, shared with a rate-limited ABC cross flow. Unlike the
// congested-uplink chain scenario (droptail reverse path: feedback is
// only delayed or lost), the uplink router *re-marks* the echoes, so an
// ABC downlink learns about reverse-path congestion explicitly — the
// sender's effective signal is the minimum of marks over the whole round
// trip.
func markedUplink(p Params) (map[string]MarkedUplinkResult, error) {
	if p.Dur <= 0 {
		p.Dur = 30 * sim.Second
	}
	down := trace.MustNamedCellular("Verizon1")
	return sweepMap("marked-uplink", p, []string{"ABC", "Cubic"}, func(sch string) (MarkedUplinkResult, error) {
		res, _, err := p.Run(Spec{
			Seed:     p.Seed,
			Duration: p.Dur,
			RTT:      100 * sim.Millisecond,
			Nodes:    []string{"bs", "ue"},
			Edges: []EdgeSpec{
				{Name: "down", From: "bs", To: "ue",
					Link: LinkSpec{Trace: down, Qdisc: QdiscSpec{Kind: "auto"}}},
				{Name: "up", From: "ue", To: "bs",
					Link: LinkSpec{Rate: uplinkMbps * 1e6, Qdisc: QdiscSpec{Kind: "abc"}}},
			},
			Flows: []FlowSpec{
				{Scheme: sch, Path: []string{"down"}, AckPath: []string{"up"}},
				{Scheme: "ABC", Path: []string{"up"},
					Source: &SourceSpec{Kind: "rate", Rate: 0.6 * uplinkMbps * 1e6}},
			},
		})
		if err != nil {
			return MarkedUplinkResult{}, err
		}
		f0 := &res.Flows[0]
		r := MarkedUplinkResult{
			Down:       flowSummary(sch, res, f0),
			QDelayP95:  f0.QDelay.P95(),
			UpTputMbps: res.Flows[1].TputMbps,
		}
		if s, ok := f0.Algorithm.(*abc.Sender); ok {
			r.ReverseBrakes = s.ReverseBrakes
		}
		if router, ok := res.EdgeQdiscs["up"].(*abc.Router); ok {
			r.EchoDemoted = router.EchoDemoted
			r.EchoKept = router.EchoAccelKept
		}
		return r, nil
	})
}

// printMesh renders each scheme's shared-junction rows.
func printMesh(w io.Writer, out map[string]MeshResult) {
	for _, sch := range sortedKeys(out) {
		fmt.Fprintf(w, "%s:\n", sch)
		for _, f := range out[sch].Flows {
			fmt.Fprintf(w, "  %-12s tput=%6.2f Mbit/s  delay mean=%6.1f ms  p95=%6.1f ms\n",
				f.Path, f.TputMbps, f.MeanMs, f.P95Ms)
		}
	}
}

// printMarkedUplink renders the marked-uplink table.
func printMarkedUplink(w io.Writer, out map[string]MarkedUplinkResult) {
	fmt.Fprintf(w, "%-14s %8s %10s %12s %10s %10s %10s\n",
		"Scheme", "DownUtil", "Down Mbps", "p95 q (ms)", "RevBrakes", "Demoted", "Up Mbps")
	for _, sch := range sortedKeys(out) {
		r := out[sch]
		fmt.Fprintf(w, "%-14s %7.1f%% %10.2f %12.0f %10d %10d %10.2f\n",
			sch, r.Down.Utilization*100, r.Down.TputMbps, r.QDelayP95,
			r.ReverseBrakes, r.EchoDemoted, r.UpTputMbps)
	}
}
