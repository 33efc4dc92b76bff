// Coexistence experiments: Fig. 6 (non-ABC bottleneck and the dual
// window), Fig. 7 (ABC and Cubic sharing a dual-queue ABC router) and
// Fig. 11 (on-off cross traffic on a wired hop).
package exp

import (
	"fmt"
	"io"

	"abc/internal/metrics"
	"abc/internal/sim"
	"abc/internal/trace"
)

// Fig6Result holds the bottleneck-switching run.
type Fig6Result struct {
	// Tput is the flow's throughput series (Mbit/s).
	Tput *metrics.Timeseries
	// WABC / WCubic sample the sender's two windows (packets).
	WABC, WCubic *metrics.Timeseries
	// WirelessRate samples the wireless link's current rate (Mbit/s).
	WirelessRate *metrics.Timeseries
	// QDelayP95 is the p95 accumulated queuing delay (ms).
	QDelayP95 float64
	// TrackError is mean |tput − min(wireless, wired)| / ideal.
	TrackError float64
}

// fig6WirelessRates is the step pattern of the emulated wireless link:
// the bottleneck alternates between the wireless link and the 12 Mbit/s
// wired link several times, as in Fig. 6.
var fig6WirelessRates = []float64{10e6, 18e6, 6e6, 16e6, 8e6, 20e6, 4e6, 14e6}

// fig6NonABCBottleneck reproduces Fig. 6: an ABC flow traverses an
// ABC-capable wireless link (stepped rate, 5 s steps) followed by a
// 12 Mbit/s wired droptail link. Whichever of wabc/wcubic is smaller
// governs the flow, and ABC tracks the bottleneck switches.
func fig6NonABCBottleneck(p Params) (*Fig6Result, error) {
	stepDur := 5 * sim.Second
	wireless := trace.Steps("fig6-wireless", fig6WirelessRates, stepDur)
	dur := sim.Time(len(fig6WirelessRates)) * stepDur * 2 // two cycles

	spec := Spec{
		Seed:     p.Seed,
		Duration: dur,
		Warmup:   2 * sim.Second,
		RTT:      100 * sim.Millisecond,
		Links: []LinkSpec{
			{Trace: wireless, Qdisc: QdiscSpec{Kind: "abc", Buffer: 500}},
			{Rate: 12e6, Qdisc: QdiscSpec{Kind: "droptail", Buffer: 100}},
		},
		Flows:  []FlowSpec{{Scheme: "ABC"}},
		Sample: 200 * sim.Millisecond,
	}
	res, _, err := p.Run(spec)
	if err != nil {
		return nil, err
	}
	fr := &res.Flows[0]
	// The windows are reported as Fig. 6 always reported them: series
	// without a Period.
	out := &Fig6Result{Tput: fr.Tput, QDelayP95: fr.QDelay.P95(),
		WABC:   &metrics.Timeseries{Times: fr.WABC.Times, Values: fr.WABC.Values},
		WCubic: &metrics.Timeseries{Times: fr.WCubic.Times, Values: fr.WCubic.Values}}
	// The wireless rate is a function of time alone: read it at the
	// instants the windows were sampled.
	out.WirelessRate = atSamples(spec.Sample, len(fr.Tput.Times), func(now sim.Time) float64 {
		return wireless.CapacityBps(now, 100*sim.Millisecond) / 1e6
	})

	// Tracking error against the ideal min(wireless step rate, 12 Mbit/s),
	// sampled away from step boundaries.
	var errSum float64
	var n int
	for i, t := range out.Tput.Times {
		if t < 5 {
			continue
		}
		step := int(t/stepDur.Seconds()) % len(fig6WirelessRates)
		ideal := fig6WirelessRates[step] / 1e6
		if ideal > 12 {
			ideal = 12
		}
		// Skip the second right after each step boundary.
		if t-float64(int(t/stepDur.Seconds()))*stepDur.Seconds() < 1.5 {
			continue
		}
		diff := out.Tput.Values[i] - ideal
		if diff < 0 {
			diff = -diff
		}
		errSum += diff / ideal
		n++
	}
	if n > 0 {
		out.TrackError = errSum / float64(n)
	}
	return out, nil
}

// Fig7Result holds the ABC/Cubic dual-queue sharing run.
type Fig7Result struct {
	// Tput[i] is flow i's throughput series (ABC1, ABC2, Cubic1, Cubic2).
	Tput []*metrics.Timeseries
	// ABCQDelayP95 and CubicQDelayP95 are per-queue p95 queuing delays:
	// ABC flows keep low delay despite the Cubic queue (ms).
	ABCQDelayP95, CubicQDelayP95 float64
	// SteadyTput are mean throughputs over the window where all four
	// flows are active.
	SteadyTput []float64
	// Jain is the fairness index over SteadyTput.
	Jain metrics.Fairness
}

// fig7Spec is Fig. 7's scenario.
func fig7Spec(seed int64) Spec {
	return Spec{
		Seed:     seed,
		Duration: 200 * sim.Second,
		Warmup:   2 * sim.Second,
		RTT:      100 * sim.Millisecond,
		Links: []LinkSpec{{
			Rate:  24e6,
			Qdisc: QdiscSpec{Kind: "dual-maxmin", Buffer: 250},
		}},
		Flows: []FlowSpec{
			{Scheme: "ABC", Start: 0},
			{Scheme: "ABC", Start: 25 * sim.Second},
			{Scheme: "Cubic", Start: 50 * sim.Second},
			{Scheme: "Cubic", Start: 75 * sim.Second},
		},
		Sample: sim.Second,
	}
}

// fig7Coexistence reproduces Fig. 7: two ABC then two Cubic flows arrive
// one after another on a 24 Mbit/s dual-queue ABC bottleneck and share it
// fairly, with ABC keeping low queuing delay.
func fig7Coexistence(p Params) (*Fig7Result, error) {
	res, _, err := p.Run(fig7Spec(p.Seed))
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{}
	for i := range res.Flows {
		out.Tput = append(out.Tput, res.Flows[i].Tput)
		// Steady window: 100–195 s (all flows active).
		out.SteadyTput = append(out.SteadyTput, meanIn(res.Flows[i].Tput, 100, 195))
	}
	out.Jain = metrics.JainIndex(out.SteadyTput)
	out.ABCQDelayP95 = res.Flows[0].QDelay.P95()
	out.CubicQDelayP95 = res.Flows[2].QDelay.P95()
	return out, nil
}

// Fig11Result holds the cross-traffic tracking run.
type Fig11Result struct {
	// Tput is the ABC flow's throughput series.
	Tput *metrics.Timeseries
	// Ideal is the fair-share ideal rate series.
	Ideal *metrics.Timeseries
	// TrackError is mean |tput − ideal| / ideal over steady samples.
	TrackError float64
	// QDelayP95NoCross is p95 queuing delay during no-cross-traffic
	// periods (should be low: ABC controls the bottleneck then).
	QDelayP95NoCross float64
}

// fig11CrossTraffic reproduces Fig. 11: an ABC flow crosses an ABC
// wireless link then a 12 Mbit/s wired droptail link shared with on-off
// Cubic cross traffic; the flow should track min(wireless rate, fair
// share of the wired link) as the bottleneck moves.
func fig11CrossTraffic(p Params) (*Fig11Result, error) {
	stepDur := 5 * sim.Second
	rates := []float64{10e6, 4e6, 8e6, 5e6, 9e6, 3e6, 7e6, 10e6}
	wireless := trace.Steps("fig11-wireless", rates, stepDur)
	dur := 80 * sim.Second
	// Cross traffic: off for the first 30 s, on 30–55 s, off afterwards.
	cross := &SourceSpec{Kind: "onoff", Start: 30 * sim.Second, On: 25 * sim.Second, Off: dur}
	spec := Spec{
		Seed:     p.Seed,
		Duration: dur,
		Warmup:   2 * sim.Second,
		RTT:      100 * sim.Millisecond,
		Links: []LinkSpec{
			{Trace: wireless, Qdisc: QdiscSpec{Kind: "abc", Buffer: 500}},
			{Rate: 12e6, Qdisc: QdiscSpec{Kind: "droptail", Buffer: 100}},
		},
		Flows: []FlowSpec{
			{Scheme: "ABC"},
			{Scheme: "Cubic", EnterAt: 1, Source: cross},
		},
		Sample: 500 * sim.Millisecond,
	}
	res, _, err := p.Run(spec)
	if err != nil {
		return nil, err
	}
	// The ideal is a function of time alone: read it at the sample
	// instants.
	crossOn := cross.source()
	idealTS := atSamples(spec.Sample, len(res.Flows[0].Tput.Times), func(now sim.Time) float64 {
		t := now.Seconds()
		step := int(t/stepDur.Seconds()) % len(rates)
		wirelessMbps := rates[step] / 1e6
		wired := 12.0
		if crossOn.Available(now) {
			wired = 6.0 // fair share against one cross flow
		}
		return min(wirelessMbps, wired)
	})
	out := &Fig11Result{Tput: res.Flows[0].Tput, Ideal: idealTS}
	var errSum float64
	var n int
	for i, t := range idealTS.Times {
		if t < 5 || i >= len(out.Tput.Values) {
			continue
		}
		// Skip samples near step or cross-traffic transitions.
		if nearBoundary(t, stepDur.Seconds()) || nearAny(t, []float64{30, 55}, 3) {
			continue
		}
		ideal := idealTS.Values[i]
		diff := out.Tput.Values[i] - ideal
		if diff < 0 {
			diff = -diff
		}
		errSum += diff / ideal
		n++
	}
	if n > 0 {
		out.TrackError = errSum / float64(n)
	}
	out.QDelayP95NoCross = res.Flows[0].QDelay.P95()
	return out, nil
}

// nearBoundary reports whether t is within 2 s after a step boundary.
func nearBoundary(t, step float64) bool {
	frac := t - float64(int(t/step))*step
	return frac < 2
}

// nearAny reports whether t is within w seconds of any point.
func nearAny(t float64, points []float64, w float64) bool {
	for _, p := range points {
		if t >= p-w && t <= p+w {
			return true
		}
	}
	return false
}

// atSamples evaluates f at the first n instants of a run sampled every
// period (period, 2·period, …), as a series.
func atSamples(period sim.Time, n int, f func(now sim.Time) float64) *metrics.Timeseries {
	ts := &metrics.Timeseries{}
	for i := 1; i <= n; i++ {
		now := sim.Time(i) * period
		ts.Add(now, f(now))
	}
	return ts
}

func printFig6(w io.Writer, r *Fig6Result) {
	fmt.Fprintf(w, "tracking error vs ideal: %.1f%%, p95 queuing delay %.0f ms\n",
		r.TrackError*100, r.QDelayP95)
	fmt.Fprintln(w, "t(s)  tput(Mbps)  wabc  wcubic  wireless(Mbps)")
	for i := 0; i < len(r.WABC.Times); i += 10 {
		fmt.Fprintf(w, "%5.1f %10.2f %6.0f %7.0f %8.1f\n",
			r.WABC.Times[i], r.Tput.Values[min(i, len(r.Tput.Values)-1)],
			r.WABC.Values[i], r.WCubic.Values[i], r.WirelessRate.Values[i])
	}
}

func printFig7(w io.Writer, r *Fig7Result) {
	fmt.Fprintf(w, "steady throughputs (Mbps): %v\n", r.SteadyTput)
	fmt.Fprintf(w, "Jain=%.3f  ABC queue p95=%.0f ms  Cubic queue p95=%.0f ms\n",
		r.Jain, r.ABCQDelayP95, r.CubicQDelayP95)
}

func printFig11(w io.Writer, r *Fig11Result) {
	fmt.Fprintf(w, "tracking error vs ideal: %.1f%%\n", r.TrackError*100)
	fmt.Fprintln(w, "t(s)  tput(Mbps)  ideal(Mbps)")
	for i := 0; i < len(r.Ideal.Times) && i < len(r.Tput.Values); i += 4 {
		fmt.Fprintf(w, "%5.1f %10.2f %10.1f\n", r.Ideal.Times[i], r.Tput.Values[i], r.Ideal.Values[i])
	}
}
