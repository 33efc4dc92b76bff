// Ablations over ABC's design parameters, exercising the choices the
// paper motivates: the delay threshold dt (batching tolerance), the drain
// constant δ (Theorem 3.1), the utilization target η, the token-bucket
// limit, and the measurement window T. Each sweep runs a single
// backlogged ABC flow on the same cellular trace and reports the
// utilization/delay trade-off per value.
package exp

import (
	"fmt"
	"io"

	"abc/internal/abc"
	"abc/internal/metrics"
	"abc/internal/sim"
	"abc/internal/trace"
)

// AblationPoint is one parameter value's outcome.
type AblationPoint struct {
	Param  string
	Value  float64
	Util   float64
	P95Ms  float64 // p95 queuing delay
	MeanMs float64
}

// AblationSweep is one parameter's sweep.
type AblationSweep struct {
	Title  string
	Points []AblationPoint
}

// ablationSweeps lists the swept parameters in report order.
var ablationSweeps = []struct {
	title, param string
	values       []float64
	set          func(c *abc.RouterConfig, v float64)
}{
	// dt (the paper evaluates 20/60/100 ms on Wi-Fi): larger thresholds
	// trade delay for throughput.
	{"delay threshold dt", "dt_ms", []float64{5, 20, 60, 100},
		func(c *abc.RouterConfig, v float64) { c.DelayThreshold = sim.FromSeconds(v / 1000) }},
	// δ around the Theorem 3.1 boundary (2/3·τ = 67 ms at τ=100 ms):
	// small δ over-reacts and oscillates, large δ drains slowly.
	{"drain constant delta", "delta_ms", []float64{30, 67, 133, 266, 532},
		func(c *abc.RouterConfig, v float64) { c.Delta = sim.FromSeconds(v / 1000) }},
	// η: the paper's 0.98 trades a little throughput for much lower
	// delay than η=1.
	{"target utilization eta", "eta", []float64{0.85, 0.9, 0.95, 0.98, 1.0},
		func(c *abc.RouterConfig, v float64) { c.Eta = v }},
	// Algorithm 1's token bucket cap: tiny caps throttle legitimate
	// accelerates, huge caps allow bursts.
	{"token bucket limit", "token_limit", []float64{1.5, 4, 10, 50},
		func(c *abc.RouterConfig, v float64) { c.TokenLimit = v }},
	// The dequeue-rate measurement window T.
	{"measurement window T", "window_ms", []float64{10, 25, 50, 100, 200},
		func(c *abc.RouterConfig, v float64) { c.Window = sim.FromSeconds(v / 1000) }},
}

// ablations runs every sweep: one backlogged ABC flow on Verizon1 per
// parameter value, everything else at the router's defaults.
func ablations(p Params) ([]AblationSweep, error) {
	tr := trace.MustNamedCellular("Verizon1")
	out := make([]AblationSweep, len(ablationSweeps))
	for i, sw := range ablationSweeps {
		out[i].Title = sw.title
		for _, v := range sw.values {
			cfg := abc.DefaultRouterConfig()
			sw.set(&cfg, v)
			res, _, err := Run(Spec{
				Seed:     p.Seed,
				Duration: p.Dur,
				RTT:      100 * sim.Millisecond,
				Links:    []LinkSpec{{Trace: tr, Qdisc: QdiscSpec{Kind: "abc", ABCConfig: &cfg}}},
				Flows:    []FlowSpec{{Scheme: "ABC"}},
			})
			if err != nil {
				return nil, err
			}
			q := &res.Flows[0].QDelay
			out[i].Points = append(out[i].Points, AblationPoint{
				Param: sw.param, Value: v, Util: res.Utilization, P95Ms: q.P95(), MeanMs: q.Mean(),
			})
		}
	}
	return out, nil
}

func printAblations(w io.Writer, sweeps []AblationSweep) {
	for _, sw := range sweeps {
		fmt.Fprintf(w, "## %s\n", sw.Title)
		for _, p := range sw.Points {
			fmt.Fprintf(w, "%-12s=%7.2f  util=%5.1f%%  qdelay mean=%6.1f ms  p95=%6.1f ms\n",
				p.Param, p.Value, p.Util*100, p.MeanMs, p.P95Ms)
		}
	}
}

// proxied runs standard then proxied-encoding ABC on the same path: the
// §5.1.2 claim is that the proxied deployment behaves like the NS-bit
// deployment without receiver changes.
func proxied(p Params) ([]metrics.Summary, error) {
	tr := trace.MustNamedCellular("Verizon1")
	std, err := runSingle("ABC", tr, 100*sim.Millisecond, p.Dur, p.Seed)
	if err != nil {
		return nil, err
	}
	prox, err := runSingle("ABC-proxied", tr, 100*sim.Millisecond, p.Dur, p.Seed)
	return []metrics.Summary{std, prox}, err
}
