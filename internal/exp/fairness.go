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
	JainAllActive metrics.Fairness
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

// fig3Both reproduces Fig. 3, without and then with additive increase:
// five ABC flows with the same RTT start and depart one by one on a
// 24 Mbit/s link. With the additive-increase term they converge to equal
// shares; without it (pure MIMD) they hold whatever split they started
// with. Jain's index is over the 1 s samples in [105, 123] s.
func fig3Both(p Params) ([]*Fig3Result, error) {
	var out []*Fig3Result
	for _, ai := range []bool{false, true} {
		res, _, err := p.Run(fig3Spec(ai, p.Seed))
		if err != nil {
			return nil, err
		}
		r := &Fig3Result{WithAI: ai}
		rates := make([]float64, len(res.Flows))
		for i := range res.Flows {
			r.Tput = append(r.Tput, res.Flows[i].Tput)
			rates[i] = meanIn(res.Flows[i].Tput, 105, 123)
		}
		r.JainAllActive = metrics.JainIndex(rates)
		out = append(out, r)
	}
	return out, nil
}

// meanIn is the mean of ts's samples taken in [lo, hi] seconds, 0
// if there are none.
func meanIn(ts *metrics.Timeseries, lo, hi float64) float64 {
	var sum float64
	var n int
	for j, t := range ts.Times {
		if t >= lo && t <= hi {
			sum += ts.Values[j]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func printFig3(w io.Writer, runs []*Fig3Result) {
	for _, r := range runs {
		fmt.Fprintf(w, "additive increase=%v: Jain index (all 5 active) = %.3f\n", r.WithAI, r.JainAllActive)
	}
}

// JainPoint is one flow count of the §6.5 sweep.
type JainPoint struct {
	Flows    int
	Jain     metrics.Fairness
	TputMbps float64 // the flows' aggregate throughput
}

// jainSweep runs 2 to 32 concurrent ABC flows on a 24 Mbit/s wired
// bottleneck for 60 s each and reports Jain's index of their throughputs
// (§6.5 reports within 5% of 1 for 2–32 flows).
func jainSweep(p Params) ([]JainPoint, error) {
	var out []JainPoint
	for _, n := range []int{2, 4, 8, 16, 32} {
		flows := make([]FlowSpec, n)
		for i := range flows {
			flows[i] = FlowSpec{Scheme: "ABC"}
		}
		res, _, err := p.Run(Spec{
			Seed:     p.Seed,
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
			return nil, err
		}
		pt := JainPoint{Flows: n}
		rates := make([]float64, n)
		for i := range res.Flows {
			rates[i] = res.Flows[i].TputMbps
			pt.TputMbps += rates[i]
		}
		pt.Jain = metrics.JainIndex(rates)
		out = append(out, pt)
	}
	return out, nil
}

func printJain(w io.Writer, pts []JainPoint) {
	for _, p := range pts {
		fmt.Fprintf(w, "flows=%2d  Jain index=%.3f\n", p.Flows, p.Jain)
	}
}
