// Fairness experiments: Fig. 3 (additive increase gives fairness among
// ABC flows) and the §6.5 Jain-index sweep.
package exp

import (
	"fmt"
	"io"

	"abc/internal/metrics"
	"abc/internal/sim"
)

// Fig3Result holds the staggered-flow fairness run.
type Fig3Result struct {
	WithAI bool
	// Tput[i] is flow i's throughput series.
	Tput []*metrics.Timeseries
	// JainAllActive is the fairness index over the window where all five
	// flows are active.
	JainAllActive float64
}

// fig3Fairness reproduces Fig. 3: five ABC flows with the same RTT start
// and depart one by one on a 24 Mbit/s link. With the additive-increase
// term the flows converge to equal shares; without it (pure MIMD) they
// hold whatever split they happened to start with. The fairness index is
// taken over the all-active window, the 1 s samples in [105, 123] s.
func fig3Fairness(o RunOptions, withAI bool, seed int64) (*Fig3Result, error) {
	res, _, err := o.Run(fig3Spec(withAI, seed))
	if err != nil {
		return nil, err
	}
	out := &Fig3Result{WithAI: withAI}
	rates := make([]float64, len(res.Flows))
	for i := range res.Flows {
		ts := res.Flows[i].Tput
		out.Tput = append(out.Tput, ts)
		var sum float64
		var n int
		for j, t := range ts.Times {
			if t >= 105 && t <= 123 {
				sum += ts.Values[j]
				n++
			}
		}
		if n > 0 {
			rates[i] = sum / float64(n)
		}
	}
	out.JainAllActive = metrics.JainIndex(rates)
	return out, nil
}

// fig3Spec is Fig. 3's scenario; without additive increase every sender
// runs pure MIMD (scheme "ABC-MIMD").
func fig3Spec(withAI bool, seed int64) Spec {
	const n = 5
	dur := 250 * sim.Second
	scheme := "ABC"
	if !withAI {
		scheme = "ABC-MIMD"
	}
	flows := make([]FlowSpec, n)
	for i := range flows {
		flows[i] = FlowSpec{
			Scheme: scheme,
			Start:  sim.Time(i) * 25 * sim.Second,
			Stop:   dur - sim.Time(i)*25*sim.Second,
		}
	}
	return Spec{
		Seed:     seed,
		Duration: dur,
		Warmup:   2 * sim.Second,
		RTT:      100 * sim.Millisecond,
		Links: []LinkSpec{{
			Rate:  24e6,
			Qdisc: QdiscSpec{Kind: "abc", Buffer: 500},
		}},
		Flows:  flows,
		Sample: sim.Second,
	}
}

// fig3Both runs Fig. 3 without, then with, additive increase.
func fig3Both(p Params) ([]*Fig3Result, error) {
	var out []*Fig3Result
	for _, ai := range []bool{false, true} {
		r, err := fig3Fairness(p.RunOptions, ai, p.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func printFig3(w io.Writer, runs []*Fig3Result) {
	for _, r := range runs {
		fmt.Fprintf(w, "additive increase=%v: Jain index (all 5 active) = %.3f\n", r.WithAI, r.JainAllActive)
	}
}

// jainFairness runs n concurrent ABC flows on a 24 Mbit/s wired
// bottleneck for 60 s and returns Jain's index of their throughputs
// (§6.5 reports within 5% of 1 for 2–32 flows).
func jainFairness(o RunOptions, n int, seed int64) (float64, error) {
	flows := make([]FlowSpec, n)
	for i := range flows {
		flows[i] = FlowSpec{Scheme: "ABC"}
	}
	res, _, err := o.Run(Spec{
		Seed:     seed,
		Duration: 60 * sim.Second,
		Warmup:   10 * sim.Second,
		RTT:      100 * sim.Millisecond,
		Links: []LinkSpec{{
			Rate:  24e6,
			Qdisc: QdiscSpec{Kind: "abc", Buffer: 500},
		}},
		Flows: flows,
	})
	if err != nil {
		return 0, err
	}
	rates := make([]float64, n)
	for i := range res.Flows {
		rates[i] = res.Flows[i].TputMbps
	}
	return metrics.JainIndex(rates), nil
}

// JainPoint is one flow count of the §6.5 sweep.
type JainPoint struct {
	Flows int
	Jain  float64
}

// jainSweep runs jainFairness at 2 to 32 flows.
func jainSweep(p Params) ([]JainPoint, error) {
	var out []JainPoint
	for _, n := range []int{2, 4, 8, 16, 32} {
		idx, err := jainFairness(p.RunOptions, n, p.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, JainPoint{Flows: n, Jain: idx})
	}
	return out, nil
}

func printJain(w io.Writer, pts []JainPoint) {
	for _, p := range pts {
		fmt.Fprintf(w, "flows=%2d  Jain index=%.3f\n", p.Flows, p.Jain)
	}
}
