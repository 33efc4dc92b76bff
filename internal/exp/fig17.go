// Fig. 17 (Appendix D): ABC, RCP and XCPw on a link whose capacity
// square-waves between 12 and 24 Mbit/s every 500 ms. Window-based ABC
// and per-packet XCPw adapt within an RTT; rate-based RCP lags, over-
// reducing on downswings and underutilizing.
package exp

import (
	"fmt"
	"io"

	"abc/internal/metrics"
	"abc/internal/sim"
	"abc/internal/trace"
)

// Fig17Run is one scheme's square-wave trajectory.
type Fig17Run struct {
	Scheme  string
	Tput    *metrics.Timeseries
	QDelay  *metrics.Timeseries
	Summary metrics.Summary
	// QDelayP95 isolates queuing delay (ms).
	QDelayP95 float64
}

// fig17SquareWave runs the given schemes (default ABC, RCP, XCPw) on the
// 12↔24 Mbit/s square wave for 10 s.
func fig17SquareWave(p Params) ([]Fig17Run, error) {
	tr := trace.SquareWave("fig17", 12e6, 24e6, 500*sim.Millisecond)
	return sweep("fig17 trace=squarewave", p, []string{"ABC", "RCP", "XCPw"}, func(sch string) (Fig17Run, error) {
		res, pooled, err := p.Run(Spec{
			Seed:     p.Seed,
			Duration: 10 * sim.Second,
			Warmup:   2 * sim.Second,
			RTT:      100 * sim.Millisecond,
			Links:    []LinkSpec{{Trace: tr}},
			Flows:    []FlowSpec{{Scheme: sch}},
			Sample:   100 * sim.Millisecond,
		})
		if err != nil {
			return Fig17Run{}, err
		}
		return Fig17Run{
			Scheme:    sch,
			Tput:      res.Flows[0].Tput,
			QDelay:    res.QueueDelayTS,
			Summary:   res.Summary(sch, pooled),
			QDelayP95: res.Flows[0].QDelay.P95(),
		}, nil
	})
}

func printFig17(w io.Writer, runs []Fig17Run) {
	for _, r := range runs {
		fmt.Fprintf(w, "%-6s util=%.1f%%  p95 queuing=%.0f ms\n",
			r.Scheme, r.Summary.Utilization*100, r.QDelayP95)
	}
}
