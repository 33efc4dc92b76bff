// Scenario drivers beyond the paper's figures, exercising topologies the
// paper's evaluation gestures at but its emulation setup could not
// express: a cellular downlink whose ACKs fight uplink cross traffic for
// a congested reverse path, flows of heterogeneous propagation RTTs
// sharing one bottleneck, and a bottleneck behind a lossy (random or
// bursty) link. All three are plain Specs over the topology harness and
// are also reachable declaratively through scenario files (cmd/abcsim
// -scenario).
package exp

import (
	"fmt"
	"io"

	"abc/internal/metrics"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/trace"
)

// UplinkResult is one scheme's outcome on the congested-uplink scenario.
type UplinkResult struct {
	// Down summarizes the downlink flow under test.
	Down metrics.Summary
	// QDelayP95 is the downlink flow's p95 accumulated queuing delay (ms),
	// which includes time its ACKs' clock-feedback loop let the data
	// queue grow.
	QDelayP95 float64
	// UpTputMbps is the reverse-direction cross flow's throughput.
	UpTputMbps float64
	// AckPathDrops counts droptail losses on the reverse (ACK) link.
	AckPathDrops int64
}

// uplinkMbps is the slow uplink's rate in the congested-uplink and
// marked-uplink drivers.
const uplinkMbps = 2

// uplinkCongestedACK runs each scheme's backlogged downlink flow over a
// Verizon-like cellular trace while a Cubic uplink flow (application-
// limited to 60% of the uplink) congests the slow reverse link that also
// carries the downlink's ACKs — the asymmetric-cellular setup where ACK
// queuing, compression and loss degrade schemes that rely on a pristine
// feedback channel. A fully backlogged uplink starves every scheme's
// ACK clock outright; the rate-limited cross flow keeps the reverse path
// congested but alive, which is where the schemes differ.
func uplinkCongestedACK(p Params) (map[string]UplinkResult, error) {
	down := trace.MustNamedCellular("Verizon1")
	return sweepMap("uplink trace=Verizon1", p, []string{"ABC", "Cubic", "Cubic+Codel", "BBR"}, func(sch string) (UplinkResult, error) {
		res, _, err := p.Run(Spec{
			Seed:     p.Seed,
			Duration: p.Dur,
			RTT:      100 * sim.Millisecond,
			Links:    []LinkSpec{{Trace: down}},
			ReverseLinks: []LinkSpec{{
				Rate:  uplinkMbps * 1e6,
				Qdisc: QdiscSpec{Kind: "droptail", Buffer: 50},
			}},
			Flows: []FlowSpec{
				{Scheme: sch},
				{Scheme: "Cubic", Dir: Reverse, Source: &SourceSpec{Kind: "rate", Rate: 0.6 * uplinkMbps * 1e6}},
			},
		})
		if err != nil {
			return UplinkResult{}, err
		}
		// The summary reports the downlink flow alone: the pooled
		// recorder would fold the uplink cross flow's (heavily queued)
		// per-packet delays into the scheme's numbers.
		f0 := &res.Flows[0]
		return UplinkResult{
			Down:         flowSummary(sch, res, f0),
			QDelayP95:    f0.QDelay.P95(),
			UpTputMbps:   res.Flows[1].TputMbps,
			AckPathDrops: res.ReverseQdiscs[0].Counters().DroppedPackets,
		}, nil
	})
}

// printUplink renders the congested-uplink table.
func printUplink(w io.Writer, out map[string]UplinkResult) {
	fmt.Fprintf(w, "%-14s %8s %10s %12s %12s %10s\n",
		"Scheme", "DownUtil", "Down Mbps", "p95 q (ms)", "AckDrops", "Up Mbps")
	for _, sch := range sortedKeys(out) {
		r := out[sch]
		fmt.Fprintf(w, "%-14s %7.1f%% %10.2f %12.0f %12d %10.2f\n",
			sch, r.Down.Utilization*100, r.Down.TputMbps, r.QDelayP95, r.AckPathDrops, r.UpTputMbps)
	}
}

// HeteroRTTResult reports the heterogeneous-RTT fairness sweep.
type HeteroRTTResult struct {
	RTTsMs []int
	// TputMbps[i] is the throughput of the flow with RTTsMs[i].
	TputMbps []float64
	// Jain is the fairness index across the flows.
	Jain metrics.Fairness
	// MaxQDelayP95 is the worst flow's p95 accumulated queuing delay (ms).
	MaxQDelayP95 float64
}

// heteroRTTFairness runs one backlogged flow per RTT (20, 50, 100 and
// 200 ms) on a shared 24 Mbit/s bottleneck with the scheme's own
// discipline, measuring how much the scheme's capacity split favours
// short-RTT flows (window dynamics paced per-RTT always favour them; the
// Jain index quantifies by how much). The first quarter of the run, at
// most 10 s, is warmup.
func heteroRTTFairness(o RunOptions, scheme string, dur sim.Time, seed int64) (*HeteroRTTResult, error) {
	if scheme == "" {
		scheme = "ABC"
	}
	rttsMs := []int{20, 50, 100, 200}
	flows := make([]FlowSpec, len(rttsMs))
	for i, ms := range rttsMs {
		flows[i] = FlowSpec{Scheme: scheme, RTT: sim.Time(ms) * sim.Millisecond}
	}
	res, _, err := o.Run(Spec{
		Seed:     seed,
		Duration: dur,
		Warmup:   min(10*sim.Second, dur/4),
		RTT:      100 * sim.Millisecond,
		Links: []LinkSpec{{
			Rate:  24e6,
			Qdisc: QdiscSpec{Kind: "auto", Buffer: 500},
		}},
		Flows: flows,
	})
	if err != nil {
		return nil, err
	}
	out := &HeteroRTTResult{RTTsMs: rttsMs}
	for i := range res.Flows {
		out.TputMbps = append(out.TputMbps, res.Flows[i].TputMbps)
		if p := res.Flows[i].QDelay.P95(); p > out.MaxQDelayP95 {
			out.MaxQDelayP95 = p
		}
	}
	out.Jain = metrics.JainIndex(out.TputMbps)
	return out, nil
}

// HeteroRTTRun is one scheme's row of the heterogeneous-RTT driver.
type HeteroRTTRun struct {
	Scheme string
	*HeteroRTTResult
}

// heteroRTTSweep runs heteroRTTFairness per scheme (default ABC, Cubic)
// at the default RTT ladder.
func heteroRTTSweep(p Params) ([]HeteroRTTRun, error) {
	return sweep("heterortt", p, []string{"ABC", "Cubic"}, func(sch string) (HeteroRTTRun, error) {
		r, err := heteroRTTFairness(p.RunOptions, sch, p.Dur, p.Seed)
		return HeteroRTTRun{Scheme: sch, HeteroRTTResult: r}, err
	})
}

func printHeteroRTT(w io.Writer, runs []HeteroRTTRun) {
	for _, r := range runs {
		fmt.Fprintf(w, "## %s (Jain=%.3f, worst-flow p95 queuing %.0f ms)\n", r.Scheme, r.Jain, r.MaxQDelayP95)
		for i, ms := range r.RTTsMs {
			fmt.Fprintf(w, "rtt=%3d ms  %6.2f Mbps\n", ms, r.TputMbps[i])
		}
	}
}

// LossyPoint is one (scheme, loss rate) cell of the robustness sweep.
type LossyPoint struct {
	Scheme   string
	LossRate float64
	Bursty   bool
	TputMbps float64
	P95Ms    float64
	// ImpairDrops counts packets the lossy stage discarded.
	ImpairDrops int64
}

// lossyLink sweeps random (or bursty, Gilbert-Elliott) loss in front of a
// 24 Mbit/s bottleneck for each scheme: loss-as-congestion schemes
// collapse as loss grows while ABC's explicit feedback keeps the link
// busy. Results are ordered scheme-major, loss-minor.
func lossyLink(o RunOptions, schemes []string, lossRates []float64, bursty bool, dur sim.Time, seed int64) ([]LossyPoint, error) {
	if len(schemes) == 0 {
		schemes = []string{"ABC", "Cubic", "BBR"}
	}
	if len(lossRates) == 0 {
		lossRates = []float64{0, 0.001, 0.01, 0.05}
	}
	out := make([]LossyPoint, len(schemes)*len(lossRates))
	err := forEachCell(o, len(out), func(i int) string {
		si, li := i/len(lossRates), i%len(lossRates)
		return fmt.Sprintf("lossy scheme=%s loss=%g bursty=%t seed=%d", schemes[si], lossRates[li], bursty, seed)
	}, func(i int) error {
		si, li := i/len(lossRates), i%len(lossRates)
		sch, loss := schemes[si], lossRates[li]
		imp := topo.Impairments{LossRate: loss}
		if bursty {
			imp = topo.Impairments{BurstLossRate: loss * 10, BurstPBad: 0.02, BurstPGood: 0.2}
		}
		res, pooled, err := o.Run(Spec{
			Seed:     seed,
			Duration: dur,
			RTT:      100 * sim.Millisecond,
			Links: []LinkSpec{{
				Rate:   24e6,
				Qdisc:  QdiscSpec{Kind: "auto", Buffer: 250},
				Impair: imp,
			}},
			Flows: []FlowSpec{{Scheme: sch}},
		})
		if err != nil {
			return err
		}
		out[i] = LossyPoint{
			Scheme:      sch,
			LossRate:    loss,
			Bursty:      bursty,
			TputMbps:    res.Flows[0].TputMbps,
			P95Ms:       pooled.P95(),
			ImpairDrops: res.Ledger.Released[packet.Impair],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// lossyBoth runs the sweep under random loss, then under bursty loss.
func lossyBoth(p Params) ([]LossyPoint, error) {
	var out []LossyPoint
	for _, bursty := range []bool{false, true} {
		pts, err := lossyLink(p.RunOptions, p.Schemes, nil, bursty, p.Dur, p.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

func printLossy(w io.Writer, pts []LossyPoint) {
	for i, p := range pts {
		if i == 0 || p.Bursty != pts[i-1].Bursty {
			kind := "random"
			if p.Bursty {
				kind = "bursty"
			}
			fmt.Fprintf(w, "## %s loss\n", kind)
		}
		fmt.Fprintf(w, "%-14s loss=%5.3f  tput=%6.2f Mbps  p95=%6.0f ms  dropped=%d\n",
			p.Scheme, p.LossRate, p.TputMbps, p.P95Ms, p.ImpairDrops)
	}
}
