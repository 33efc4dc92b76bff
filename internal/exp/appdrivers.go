// Application-workload drivers: the experiments behind `abcsim -exp
// shortflows|video|rpc`. Each compares registered schemes on a cellular
// trace under realistic application traffic — open-loop web-like short
// flows with FCT/slowdown metrics, an ABR video session with a QoE
// summary, and request-response RPC clients competing with a bulk
// transfer — exercising the paper's headline claim (low delay for
// interactive traffic without sacrificing throughput) at the application
// layer instead of the link layer.
package exp

import (
	"fmt"
	"io"

	"abc/internal/app"
	"abc/internal/metrics"
	"abc/internal/trace"
)

// appSchemes is the default comparison set for the application-workload
// drivers.
var appSchemes = []string{"ABC", "Cubic", "BBR", "XCP"}

// appTrace names the cellular trace the drivers run over.
const appTrace = "Verizon1"

// ShortFlowsResult is one scheme's row of the short-flows experiment.
type ShortFlowsResult struct {
	Scheme string
	// FCT summarizes the web workload's completion times; slowdown is
	// normalized to the trace's long-run average rate plus one RTT.
	FCT metrics.FCTStats
	// Spawned/Completed/Rejected/Active count the workload's flows.
	Spawned, Completed, Rejected, Active int
	// QDelayP95 is the short flows' p95 per-packet accumulated queueing
	// delay (ms) — the interactive-traffic delay metric.
	QDelayP95 float64
	// LongTputMbps is the competing bulk flow's throughput.
	LongTputMbps float64
	Utilization  float64
}

// shortFlows runs, per scheme, one bulk flow plus an open-loop Poisson
// workload of heavy-tailed web-like short flows (10 KB–1 MB bounded
// Pareto) over the Verizon1 trace.
func shortFlows(p Params) ([]ShortFlowsResult, error) {
	tr := trace.MustNamedCellular(appTrace)
	return sweep("shortflows trace="+appTrace, p, appSchemes, func(scheme string) (ShortFlowsResult, error) {
		res, _, err := Run(Spec{
			Seed:     p.Seed,
			Duration: p.Dur,
			Links:    []LinkSpec{{Trace: tr, Qdisc: QdiscSpec{Kind: "auto", Buffer: 250}}},
			Flows:    []FlowSpec{{Scheme: scheme}},
			Workloads: []WorkloadSpec{{
				Scheme:  scheme,
				Class:   "web",
				Arrival: app.Poisson{PerSec: 4},
				Sizes:   app.BoundedPareto{Min: 10 * 1024, Max: 1024 * 1024, Alpha: 1.2},
				RefMbps: tr.AvgRateBps() / 1e6,
			}},
		})
		if err != nil {
			return ShortFlowsResult{}, err
		}
		w := &res.Workloads[0]
		return ShortFlowsResult{
			Scheme:       scheme,
			FCT:          w.Stats(),
			Spawned:      w.Spawned,
			Completed:    w.Completed,
			Rejected:     w.Rejected,
			Active:       w.Active,
			QDelayP95:    w.QDelay.P95(),
			LongTputMbps: res.Flows[0].TputMbps,
			Utilization:  res.Utilization,
		}, nil
	})
}

// VideoResult is one scheme's row of the ABR video experiment.
type VideoResult struct {
	Scheme string
	QoE    metrics.QoE
	// QDelayP95 is the video flow's p95 accumulated queueing delay (ms).
	QDelayP95 float64
	TputMbps  float64
}

// videoExp runs, per scheme, one ABR video session over the Verizon1
// trace: the buffer-based client climbs the bitrate ladder as far as the
// scheme's delivery rate and self-inflicted queueing allow.
func videoExp(p Params) ([]VideoResult, error) {
	tr := trace.MustNamedCellular(appTrace)
	return sweep("video trace="+appTrace, p, appSchemes, func(scheme string) (VideoResult, error) {
		res, _, err := Run(Spec{
			Seed:     p.Seed,
			Duration: p.Dur,
			Links:    []LinkSpec{{Trace: tr, Qdisc: QdiscSpec{Kind: "auto", Buffer: 250}}},
			Flows: []FlowSpec{{
				Scheme: scheme,
				App:    &AppSpec{Kind: "abr"},
			}},
		})
		if err != nil {
			return VideoResult{}, err
		}
		f := &res.Flows[0]
		return VideoResult{
			Scheme:    scheme,
			QoE:       f.App.(*app.ABR).QoE(),
			QDelayP95: f.QDelay.P95(),
			TputMbps:  f.TputMbps,
		}, nil
	})
}

// RPCResult is one scheme's row of the RPC experiment.
type RPCResult struct {
	Scheme string
	// FCT pools every client's per-call completion times.
	FCT metrics.FCTStats
	// Calls counts completed request-response exchanges across clients.
	Calls int
	// QDelayP95 is the RPC clients' p95 accumulated queueing delay (ms).
	QDelayP95 float64
	// LongTputMbps is the competing bulk flow's throughput.
	LongTputMbps float64
}

// rpcClients is the number of concurrent RPC clients per scheme.
const rpcClients = 3

// rpcExp runs, per scheme, rpcClients request-response clients (100 KB
// responses, 200 ms mean think time) competing with one bulk flow over
// the Verizon1 trace; per-call completion times pool across clients.
func rpcExp(p Params) ([]RPCResult, error) {
	tr := trace.MustNamedCellular(appTrace)
	return sweep("rpc trace="+appTrace, p, appSchemes, func(scheme string) (RPCResult, error) {
		pool := &metrics.DelayRecorder{}
		flows := []FlowSpec{{Scheme: scheme}}
		for c := 0; c < rpcClients; c++ {
			flows = append(flows, FlowSpec{
				Scheme: scheme,
				App:    &AppSpec{Kind: "rpc", RPC: app.RPCConfig{FCT: pool}},
			})
		}
		res, _, err := Run(Spec{
			Seed:     p.Seed,
			Duration: p.Dur,
			Links:    []LinkSpec{{Trace: tr, Qdisc: QdiscSpec{Kind: "auto", Buffer: 250}}},
			Flows:    flows,
		})
		if err != nil {
			return RPCResult{}, err
		}
		row := RPCResult{
			Scheme:       scheme,
			LongTputMbps: res.Flows[0].TputMbps,
		}
		var bytes int64
		for c := 1; c <= rpcClients; c++ {
			f := &res.Flows[c]
			row.Calls += f.App.(*app.RPC).Calls
			bytes += f.Bytes
			// Streaming recorders cannot merge, so report the worst
			// client's p95 queueing delay — conservative and
			// deterministic.
			if p := f.QDelay.P95(); p > row.QDelayP95 {
				row.QDelayP95 = p
			}
		}
		row.FCT = metrics.NewFCTStats("rpc", pool, nil, bytes)
		return row, nil
	})
}

// printShortFlows renders the short-flows table.
func printShortFlows(w io.Writer, rows []ShortFlowsResult) {
	fmt.Fprintf(w, "%-14s %8s %12s %12s %10s %10s %10s\n",
		"Scheme", "Flows", "FCT mean", "FCT p95", "Slowdown", "q p95(ms)", "Bulk Mbps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %9.0f ms %9.0f ms %10.2f %10.0f %10.2f\n",
			r.Scheme, r.FCT.Count, r.FCT.MeanMs, r.FCT.P95Ms, r.FCT.P95Slowdown,
			r.QDelayP95, r.LongTputMbps)
	}
}

// printVideo renders one QoE row per scheme.
func printVideo(w io.Writer, rows []VideoResult) {
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %v  queue p95=%4.0f ms\n", r.Scheme, r.QoE, r.QDelayP95)
	}
}

// printRPC renders the RPC table.
func printRPC(w io.Writer, rows []RPCResult) {
	fmt.Fprintf(w, "%-14s %8s %12s %12s %10s %10s\n",
		"Scheme", "Calls", "FCT mean", "FCT p95", "q p95(ms)", "Bulk Mbps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %9.0f ms %9.0f ms %10.0f %10.2f\n",
			r.Scheme, r.Calls, r.FCT.MeanMs, r.FCT.P95Ms, r.QDelayP95, r.LongTputMbps)
	}
}
