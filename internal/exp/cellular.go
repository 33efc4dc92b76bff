// Shared cellular runners: Fig. 1 time series, Fig. 2 feedback-mode
// ablation, Fig. 8 scatter plots, Fig. 9/15/16 bars, Table 1, Fig. 18 RTT
// sweep, §6.6 PK-ABC and Fig. 13 application-limited flows.
package exp

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"abc/internal/abc"
	"abc/internal/metrics"
	"abc/internal/sim"
	"abc/internal/trace"
)

// runSingle runs one backlogged flow of the scheme over the trace and
// returns the paper's summary metrics.
func runSingle(o RunOptions, scheme string, tr *trace.Trace, rtt, dur sim.Time, seed int64) (metrics.Summary, error) {
	res, pooled, err := o.Run(Spec{
		Seed:     seed,
		Duration: dur,
		RTT:      rtt,
		Links:    []LinkSpec{{Trace: tr}},
		Flows:    []FlowSpec{{Scheme: scheme}},
	})
	if err != nil {
		return metrics.Summary{}, err
	}
	return res.Summary(scheme, pooled), nil
}

// TimeseriesRun is one scheme's Fig.-1-style trajectory.
type TimeseriesRun struct {
	Scheme  string
	Tput    *metrics.Timeseries // Mbit/s, per sample period
	QDelay  *metrics.Timeseries // bottleneck standing queue delay, ms
	Summary metrics.Summary
}

// lteTrace returns the emulated LTE link used by Fig. 1: a volatile
// cellular trace whose capacity both collapses and surges within seconds.
func lteTrace() *trace.Trace {
	return trace.Cellular("LTE", trace.CellParams{
		Seed: 7, Duration: 30 * sim.Second, MeanMbps: 8,
		Sigma: 0.3, MinMbps: 0.6, MaxMbps: 16, OutageProb: 0.02,
	})
}

// fig1Timeseries reproduces Fig. 1: Cubic, Verus, Cubic+CoDel and ABC on
// an emulated LTE link (RTT 100 ms, 250-packet buffer), reporting
// throughput and queuing-delay trajectories.
func fig1Timeseries(p Params) ([]TimeseriesRun, error) {
	tr := lteTrace()
	// The figure's four schemes, whatever -schemes asks for.
	return sweep("fig1 trace=LTE", Params{RunOptions: p.RunOptions, Seed: p.Seed}, []string{"Cubic", "Verus", "Cubic+Codel", "ABC"}, func(sch string) (TimeseriesRun, error) {
		res, pooled, err := p.Run(fig1Spec(tr, sch, p.Seed))
		if err != nil {
			return TimeseriesRun{}, err
		}
		return TimeseriesRun{
			Scheme:  sch,
			Tput:    res.Flows[0].Tput,
			QDelay:  res.QueueDelayTS,
			Summary: res.Summary(sch, pooled),
		}, nil
	})
}

// fig1Spec is one scheme's Fig. 1 run: a backlogged flow over the LTE
// trace, sampled for the time plots.
func fig1Spec(tr *trace.Trace, scheme string, seed int64) Spec {
	return Spec{
		Seed:     seed,
		Duration: 30 * sim.Second,
		Warmup:   2 * sim.Second,
		RTT:      100 * sim.Millisecond,
		Links:    []LinkSpec{{Trace: tr}},
		Flows:    []FlowSpec{{Scheme: scheme}},
		Sample:   200 * sim.Millisecond,
	}
}

func printFig1(w io.Writer, runs []TimeseriesRun) {
	for _, r := range runs {
		fmt.Fprintf(w, "## %s\n%v\n", r.Scheme, r.Summary)
		fmt.Fprintln(w, "t(s)  tput(Mbps)  qdelay(ms)")
		for i := 0; i < len(r.Tput.Times); i += 5 {
			fmt.Fprintf(w, "%5.1f %10.2f %10.1f\n", r.Tput.Times[i], r.Tput.Values[i], r.QDelay.Values[i])
		}
	}
}

// Fig2Result compares ABC's dequeue-rate feedback with the enqueue-rate
// ablation.
type Fig2Result struct {
	Dequeue, Enqueue metrics.Summary
	// QDelayP95Dequeue/Enqueue are 95th-percentile accumulated queuing
	// delays (the figure's y-axis).
	QDelayP95Dequeue float64
	QDelayP95Enqueue float64
}

// fig2FeedbackMode reproduces Fig. 2: computing f(t) from the enqueue
// rate roughly doubles 95th-percentile queuing delay versus ABC's
// dequeue-rate rule.
func fig2FeedbackMode(p Params) (*Fig2Result, error) {
	tr := trace.Cellular("fig2", trace.CellParams{
		Seed: 42, Duration: 60 * sim.Second, MeanMbps: 10, Sigma: 0.25,
	})
	run := func(mode abc.FeedbackMode) (metrics.Summary, float64, error) {
		cfg := abc.DefaultRouterConfig()
		cfg.Feedback = mode
		res, pooled, err := p.Run(Spec{
			Seed:     p.Seed,
			Duration: 60 * sim.Second,
			RTT:      100 * sim.Millisecond,
			Links: []LinkSpec{{
				Trace: tr,
				Qdisc: QdiscSpec{Kind: "abc", ABCConfig: &cfg},
			}},
			Flows: []FlowSpec{{Scheme: "ABC"}},
		})
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		return res.Summary("ABC", pooled), res.Flows[0].QDelay.P95(), nil
	}
	deq, dq95, err := run(abc.DequeueRate)
	if err != nil {
		return nil, err
	}
	enq, eq95, err := run(abc.EnqueueRate)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Dequeue: deq, Enqueue: enq, QDelayP95Dequeue: dq95, QDelayP95Enqueue: eq95}, nil
}

func printFig2(w io.Writer, r *Fig2Result) {
	fmt.Fprintf(w, "dequeue feedback: %v  (p95 queuing %.0f ms)\n", r.Dequeue, r.QDelayP95Dequeue)
	fmt.Fprintf(w, "enqueue feedback: %v  (p95 queuing %.0f ms)\n", r.Enqueue, r.QDelayP95Enqueue)
	fmt.Fprintf(w, "enqueue/dequeue p95 queuing-delay ratio: %.2fx (paper: ~2x)\n",
		r.QDelayP95Enqueue/r.QDelayP95Dequeue)
}

// ScatterKind selects the Fig. 8 sub-figure.
type ScatterKind int

const (
	// Downlink is Fig. 8a.
	Downlink ScatterKind = iota
	// Uplink is Fig. 8b.
	Uplink
	// UplinkDownlink is Fig. 8c: the two-hop smartphone-to-smartphone
	// path with two cellular bottlenecks.
	UplinkDownlink
)

// fig8Scatter reproduces Fig. 8: every scheme's (p95 delay, utilization)
// on Verizon-like traces, optionally across two cellular hops.
func fig8Scatter(kind ScatterKind, p Params) ([]metrics.Summary, error) {
	down := trace.MustNamedCellular("Verizon1")
	up := trace.MustNamedCellular("Verizon2")
	var links []LinkSpec
	switch kind {
	case Downlink:
		links = []LinkSpec{{Trace: down}}
	case Uplink:
		links = []LinkSpec{{Trace: up}}
	case UplinkDownlink:
		links = []LinkSpec{{Trace: up}, {Trace: down}}
	}
	return sweep(fmt.Sprintf("fig8 kind=%d", kind), p, Schemes, func(sch string) (metrics.Summary, error) {
		res, pooled, err := p.Run(Spec{
			Seed: p.Seed, Duration: p.Dur, RTT: 100 * sim.Millisecond,
			Links: slices.Clone(links), Flows: []FlowSpec{{Scheme: sch}},
		})
		if err != nil {
			return metrics.Summary{}, err
		}
		return res.Summary(sch, pooled), nil
	})
}

// Fig8Panel is one Fig. 8 sub-figure: every scheme's summary on one
// path kind.
type Fig8Panel struct {
	Path string
	Rows []metrics.Summary
}

// fig8Panels runs Fig. 8's three sub-figures in the paper's order.
func fig8Panels(p Params) ([]Fig8Panel, error) {
	paths := []string{Downlink: "downlink", Uplink: "uplink", UplinkDownlink: "uplink+downlink"}
	out := make([]Fig8Panel, len(paths))
	for kind, path := range paths {
		rows, err := fig8Scatter(ScatterKind(kind), p)
		if err != nil {
			return nil, err
		}
		out[kind] = Fig8Panel{Path: path, Rows: rows}
	}
	return out, nil
}

func printFig8(w io.Writer, panels []Fig8Panel) {
	for _, p := range panels {
		fmt.Fprintf(w, "## %s\n", p.Path)
		printSummaries(w, p.Rows)
	}
}

// BarsResult holds Fig. 9/15/16 data: per-trace, per-scheme summaries.
type BarsResult struct {
	Traces  []string
	Schemes []string
	// Cells[traceName][scheme] is that run's summary.
	Cells map[string]map[string]metrics.Summary
}

// Average returns the cross-trace mean utilization, mean delay and p95
// delay for a scheme.
func (b *BarsResult) Average(scheme string) (util, meanMs, p95Ms float64) {
	var n float64
	for _, tr := range b.Traces {
		s, ok := b.Cells[tr][scheme]
		if !ok {
			continue
		}
		util += s.Utilization
		meanMs += s.MeanMs
		p95Ms += s.P95Ms
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	return util / n, meanMs / n, p95Ms / n
}

// fig9Bars reproduces Fig. 9 (and feeds Fig. 15, Fig. 16 and Table 1):
// every scheme on the cellular corpus (traces, else all eight). The
// (trace, scheme) cells are independent simulations and fan out across
// the worker pool; results are byte-identical to a sequential sweep.
func fig9Bars(p Params, traces []string) (*BarsResult, error) {
	if len(traces) == 0 {
		traces = trace.CellularNames
	}
	// Parse traces up front (shared immutable inputs for all cells).
	trs := make(map[string]*trace.Trace, len(traces))
	for _, trName := range traces {
		tr, err := trace.NamedCellular(trName)
		if err != nil {
			return nil, err
		}
		trs[trName] = tr
	}
	cells, schemes, err := grid(p, traces, func(tr string) string { return "bars trace=" + tr },
		func(tr, sch string) (metrics.Summary, error) {
			return runSingle(p.RunOptions, sch, trs[tr], 100*sim.Millisecond, p.Dur, p.Seed)
		})
	if err != nil {
		return nil, err
	}
	return &BarsResult{Traces: traces, Schemes: schemes, Cells: cells}, nil
}

// cellularBars runs the eight-trace cellular corpus (Fig. 9 and 15).
func cellularBars(p Params) (*BarsResult, error) { return fig9Bars(p, nil) }

// fig16 runs the corpus with the Appendix D explicit schemes.
func fig16(p Params) (*BarsResult, error) {
	p.Schemes = explicitSchemes
	return cellularBars(p)
}

// Table1Row is one line of the paper's §1 summary table.
type Table1Row struct {
	Scheme    string
	NormTput  float64
	NormDelay float64 // 95th percentile, normalized to ABC
}

// SummaryTable reproduces Table 1: throughput and p95 delay normalized to
// ABC, averaged over the cellular corpus.
func SummaryTable(bars *BarsResult) []Table1Row {
	abcUtil, _, abcP95 := bars.Average("ABC")
	rows := make([]Table1Row, 0, len(bars.Schemes))
	for _, sch := range bars.Schemes {
		u, _, p := bars.Average(sch)
		row := Table1Row{Scheme: sch}
		if abcUtil > 0 {
			row.NormTput = u / abcUtil
		}
		if abcP95 > 0 {
			row.NormDelay = p / abcP95
		}
		rows = append(rows, row)
	}
	return rows
}

// printBars renders Fig. 9/16's cross-trace averages.
func printBars(w io.Writer, bars *BarsResult) {
	fmt.Fprintf(w, "%-14s %8s %12s %12s\n", "Scheme", "AvgUtil", "AvgMean(ms)", "AvgP95(ms)")
	for _, sch := range bars.Schemes {
		u, m, p := bars.Average(sch)
		fmt.Fprintf(w, "%-14s %7.1f%% %12.0f %12.0f\n", sch, u*100, m, p)
	}
}

// printMeanDelay renders Fig. 15's column of the same bars.
func printMeanDelay(w io.Writer, bars *BarsResult) {
	fmt.Fprintf(w, "%-14s %12s\n", "Scheme", "AvgMean(ms)")
	for _, sch := range bars.Schemes {
		_, m, _ := bars.Average(sch)
		fmt.Fprintf(w, "%-14s %12.0f\n", sch, m)
	}
}

func printTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-14s %10s %16s\n", "Scheme", "Norm Tput", "Norm Delay (95%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.2f %16.2f\n", r.Scheme, r.NormTput, r.NormDelay)
	}
}

// fig18RTTSweep reproduces Fig. 18: each scheme across propagation RTTs
// of 20/50/100/200 ms on a Verizon-like trace. Keyed [rttMs][scheme].
func fig18RTTSweep(p Params) (map[int]map[string]metrics.Summary, error) {
	tr := trace.MustNamedCellular("Verizon1")
	rttName := func(ms int) string { return fmt.Sprintf("fig18 rtt=%dms", ms) }
	out, _, err := grid(p, []int{20, 50, 100, 200}, rttName, func(ms int, sch string) (metrics.Summary, error) {
		rtt := sim.Time(ms) * sim.Millisecond
		link := LinkSpec{Trace: tr}
		if sch == "ABC" {
			// Theorem 3.1 requires δ > (2/3)τ; scale δ with the
			// propagation RTT as the paper's 133 ms = 1.33 × 100 ms.
			cfg := abc.DefaultRouterConfig()
			if d := sim.Time(float64(rtt) * 1.33); d > cfg.Delta {
				cfg.Delta = d
			}
			link.Qdisc = QdiscSpec{Kind: "abc", ABCConfig: &cfg}
		}
		res, pooled, err := p.Run(Spec{
			Seed: p.Seed, Duration: p.Dur, RTT: rtt,
			Links: []LinkSpec{link},
			Flows: []FlowSpec{{Scheme: sch}},
		})
		if err != nil {
			return metrics.Summary{}, err
		}
		return res.Summary(sch, pooled), nil
	})
	return out, err
}

// printFig18 renders one block per RTT, schemes sorted (the result is
// keyed by name, so request order is not available).
func printFig18(w io.Writer, out map[int]map[string]metrics.Summary) {
	rtts := make([]int, 0, len(out))
	for rtt := range out {
		rtts = append(rtts, rtt)
	}
	sort.Ints(rtts)
	for _, rtt := range rtts {
		fmt.Fprintf(w, "## RTT %d ms\n", rtt)
		for _, sch := range sortedKeys(out[rtt]) {
			s := out[rtt][sch]
			fmt.Fprintf(w, "%-14s util=%5.1f%%  p95=%6.0f ms\n", sch, s.Utilization*100, s.P95Ms)
		}
	}
}

// PKABCResult compares standard ABC with the perfect-knowledge oracle.
type PKABCResult struct {
	ABC, PK metrics.Summary
	// QDelayP95* isolate queuing delay, the §6.6 metric.
	QDelayP95ABC, QDelayP95PK float64
}

// pkABC reproduces §6.6's perfect-future-knowledge experiment: PK-ABC
// uses the link rate one RTT in the future and sharply cuts p95 delay at
// equal utilization.
func pkABC(p Params) (*PKABCResult, error) {
	tr := trace.MustNamedCellular("Verizon2")
	run := func(lookahead sim.Time) (metrics.Summary, float64, error) {
		res, pooled, err := p.Run(Spec{
			Seed: p.Seed, Duration: p.Dur, RTT: 100 * sim.Millisecond,
			Links: []LinkSpec{{Trace: tr, Lookahead: lookahead}},
			Flows: []FlowSpec{{Scheme: "ABC"}},
		})
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		return res.Summary("ABC", pooled), res.Flows[0].QDelay.P95(), nil
	}
	std, stdQ, err := run(0)
	if err != nil {
		return nil, err
	}
	pk, pkQ, err := run(100 * sim.Millisecond)
	if err != nil {
		return nil, err
	}
	return &PKABCResult{ABC: std, PK: pk, QDelayP95ABC: stdQ, QDelayP95PK: pkQ}, nil
}

func printPKABC(w io.Writer, r *PKABCResult) {
	fmt.Fprintf(w, "ABC:    %v (p95 queuing %.0f ms)\n", r.ABC, r.QDelayP95ABC)
	fmt.Fprintf(w, "PK-ABC: %v (p95 queuing %.0f ms)\n", r.PK, r.QDelayP95PK)
}

// Fig13Result reports the application-limited-flows experiment.
type Fig13Result struct {
	Utilization float64
	QDelayP95   float64
	// BackloggedTput and AppLimitedTput split throughput between the one
	// backlogged flow and the app-limited aggregate.
	BackloggedTputMbps float64
	AppLimitedTputMbps float64
}

// fig13 reproduces Fig. 13: one backlogged ABC flow shares an ABC
// cellular bottleneck with 50 application-limited ABC flows sending
// 1 Mbit/s in aggregate; everyone keeps low delay and the link stays
// utilized.
func fig13(p Params) (*Fig13Result, error) {
	const n, aggAppMbps = 50, 1.0
	tr := trace.MustNamedCellular("Verizon3")
	flows := make([]FlowSpec, 0, n+1)
	flows = append(flows, FlowSpec{Scheme: "ABC"}) // backlogged
	per := aggAppMbps * 1e6 / n
	for i := 0; i < n; i++ {
		flows = append(flows, FlowSpec{Scheme: "ABC", Source: &SourceSpec{Kind: "rate", Rate: per}})
	}
	res, _, err := p.Run(Spec{
		Seed: p.Seed, Duration: p.Dur, RTT: 100 * sim.Millisecond,
		Links: []LinkSpec{{Trace: tr}},
		Flows: flows,
	})
	if err != nil {
		return nil, err
	}
	out := &Fig13Result{Utilization: res.Utilization}
	for i := range res.Flows {
		f := &res.Flows[i]
		if i == 0 {
			out.BackloggedTputMbps = f.TputMbps
		} else {
			out.AppLimitedTputMbps += f.TputMbps
		}
	}
	out.QDelayP95 = res.Flows[0].QDelay.P95()
	return out, nil
}

func printFig13(w io.Writer, r *Fig13Result) {
	fmt.Fprintf(w, "util=%.1f%%  backlogged=%.2f Mbps  app-limited agg=%.2f Mbps  p95 queuing=%.0f ms\n",
		r.Utilization*100, r.BackloggedTputMbps, r.AppLimitedTputMbps, r.QDelayP95)
}
