// Hybrid fluid/packet driver: the experiment behind `abcsim -exp
// hybrid`. It holds a packet-level interactive foreground fixed — one
// ABR video session plus RPC request-response clients — and scales a
// fluid background aggregate on the same bottleneck from zero users to
// a million, in constant simulation cost per scale (the aggregate is a
// fixed-step rate process, not per-user packet events). The rows show
// foreground QoE/FCT degrading as the background claims link share; the
// bench workload hybrid_bg measures what a million fluid users cost.
package exp

import (
	"fmt"
	"io"

	"abc/internal/app"
	"abc/internal/metrics"
	"abc/internal/sim"
)

// hybridScales is the ladder of background user counts.
var hybridScales = []int{0, 1_000, 1_000_000}

// hybridBpsPerUser is the offered background rate per virtual user:
// ~48 bits/sec each, so a million users offer 48 Mbps against the
// driver's 60 Mbps bottleneck while a thousand offer a negligible
// 48 kbps.
const hybridBpsPerUser = 48.0

// hybridRateMbps is the driver's bottleneck capacity.
const hybridRateMbps = 60.0

// hybridRPCClients is the number of concurrent RPC clients per cell.
const hybridRPCClients = 2

// HybridCell is one background-scale row of the hybrid experiment.
type HybridCell struct {
	// Users is the number of virtual background users the fluid
	// aggregate stands in for (0 = packet-only baseline).
	Users int
	// BgOfferedMbps is the aggregate's steady offered rate.
	BgOfferedMbps float64
	// BgServedMB / BgMeanShare report what the fluid actually consumed:
	// megabytes served and the time-averaged fraction of link service.
	BgServedMB  float64
	BgMeanShare float64
	// VideoQoE / VideoTputMbps summarize the ABR session.
	VideoQoE      metrics.QoE
	VideoTputMbps float64
	// RPCFCT pools the RPC clients' per-call completion times; RPCCalls
	// counts completed exchanges.
	RPCFCT   metrics.FCTStats
	RPCCalls int
	// QDelayP95 is the foreground pooled p95 per-packet accumulated
	// queueing delay (ms) — fluid-inflated when the background is on.
	QDelayP95 float64
}

// hybrid runs the hybrid fluid/packet experiment: per background scale
// in hybridScales, a 60 Mbps rate bottleneck with an ABC qdisc carries
// one ABR video flow and hybridRPCClients RPC clients packet-by-packet,
// all ABC, plus one "const" fluid aggregate of scale virtual users at
// hybridBpsPerUser each (skipped when scale is 0).
func hybrid(p Params) ([]HybridCell, error) {
	const scheme = "ABC"
	cells := make([]HybridCell, len(hybridScales))
	err := forEachCell(p.RunOptions, len(hybridScales), func(i int) string {
		return fmt.Sprintf("hybrid scheme=%s users=%d seed=%d", scheme, hybridScales[i], p.Seed)
	}, func(i int) error {
		users := hybridScales[i]
		pool := &metrics.DelayRecorder{}
		flows := []FlowSpec{{
			Scheme: scheme,
			App:    &AppSpec{Kind: "abr"},
		}}
		for c := 0; c < hybridRPCClients; c++ {
			flows = append(flows, FlowSpec{
				Scheme: scheme,
				App:    &AppSpec{Kind: "rpc", RPC: app.RPCConfig{FCT: pool}},
			})
		}
		spec := Spec{
			Seed:     p.Seed,
			Duration: p.Dur,
			Links: []LinkSpec{{
				Rate:  hybridRateMbps * 1e6,
				Qdisc: QdiscSpec{Kind: "auto", Buffer: 250},
			}},
			Flows: flows,
		}
		offered := float64(users) * hybridBpsPerUser / 1e6
		if users > 0 {
			spec.Background = []BackgroundSpec{{
				Edge:     "fwd0",
				Kind:     "const",
				Flows:    users,
				RateMbps: offered,
				Ramp:     sim.Second,
			}}
		}
		res, pooled, rerr := p.Run(spec)
		if rerr != nil {
			return rerr
		}
		video := &res.Flows[0]
		cell := HybridCell{
			Users:         users,
			BgOfferedMbps: offered,
			VideoQoE:      video.App.(*app.ABR).QoE(),
			VideoTputMbps: video.TputMbps,
			QDelayP95:     pooled.P95(),
		}
		var bytes int64
		for c := 1; c <= hybridRPCClients; c++ {
			f := &res.Flows[c]
			cell.RPCCalls += f.App.(*app.RPC).Calls
			bytes += f.Bytes
		}
		cell.RPCFCT = metrics.NewFCTStats("rpc", pool, nil, bytes)
		if len(res.Backgrounds) > 0 {
			cell.BgServedMB = res.Backgrounds[0].ServedMB
			cell.BgMeanShare = res.Backgrounds[0].MeanShare
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

func printHybrid(w io.Writer, cells []HybridCell) {
	fmt.Fprintf(w, "%10s %10s %8s %10s %10s %10s %9s\n",
		"Users", "BgMbps", "BgShare", "VideoKbps", "RPC mean", "RPC p95", "q p95(ms)")
	for _, c := range cells {
		fmt.Fprintf(w, "%10d %10.3f %7.1f%% %10.0f %7.0f ms %7.0f ms %9.0f\n",
			c.Users, c.BgOfferedMbps, c.BgMeanShare*100, c.VideoQoE.MeanKbps,
			c.RPCFCT.MeanMs, c.RPCFCT.P95Ms, c.QDelayP95)
	}
}
