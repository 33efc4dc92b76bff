// Wi-Fi experiments: Fig. 4 (inter-ACK time vs batch size), Fig. 5 (link
// rate prediction accuracy), Fig. 10 (full-stack comparison on a varying
// 802.11n link, one and two users) and Fig. 14 (Brownian MCS walk).
package exp

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"abc/internal/abc"
	"abc/internal/metrics"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/wifi"
)

// Fig4Sample is one (batch size, inter-ACK time) observation.
type Fig4Sample struct {
	Batch int
	TIAms float64
}

// Fig4Result holds the batching characterization.
type Fig4Result struct {
	Samples []Fig4Sample
	// MeanTIA[b] is the average inter-ACK time for batch size b (ms).
	MeanTIA map[int]float64
	// FittedSlopeMs is the slope of mean TIA vs b (ms/frame); the paper
	// shows it equals S/R.
	FittedSlopeMs float64
	// TheorySlopeMs is S/R for the link's bitrate.
	TheorySlopeMs float64
}

// fig4InterACK reproduces Fig. 4: drive a fixed-MCS 802.11n link at
// several offered loads so batches of every size occur, and record the
// inter-ACK time for each batch.
func fig4InterACK(p Params) (*Fig4Result, error) {
	cfg := wifi.DefaultLinkConfig()
	cfg.MCS = wifi.FixedMCS(1) // 13 Mbit/s PHY: visible slope
	out := &Fig4Result{MeanTIA: make(map[int]float64)}
	counts := make(map[int]int)

	for _, loadMbps := range []float64{1, 2, 4, 6, 8, 10, 11, 12} {
		s := sim.New(p.Seed)
		sink := &packet.Sink{}
		link := wifi.NewLink(s, cfg, qdisc.NewDropTail(1000), sink, nil)
		link.OnBatch = func(now sim.Time, b int, tia sim.Time, bitrate float64) {
			if now < sim.Second { // settle
				return
			}
			out.Samples = append(out.Samples, Fig4Sample{Batch: b, TIAms: tia.Millis()})
			out.MeanTIA[b] += tia.Millis()
			counts[b]++
		}
		injectCBR(s, link, loadMbps*1e6, 10*sim.Second)
		s.RunUntil(10 * sim.Second)
	}
	for b, c := range counts {
		out.MeanTIA[b] /= float64(c)
	}
	out.FittedSlopeMs = fitSlope(out.MeanTIA)
	out.TheorySlopeMs = float64(packet.MTU*8) / wifi.BitrateForMCS(1) * 1000
	return out, nil
}

// fitSlope returns the least-squares slope of means[b] against b. It
// sums in ascending b, so the result does not depend on map order.
func fitSlope(means map[int]float64) float64 {
	bs := make([]int, 0, len(means))
	for b := range means {
		bs = append(bs, b)
	}
	slices.Sort(bs)
	var sx, sy, sxx, sxy, n float64
	for _, b := range bs {
		x, m := float64(b), means[b]
		sx += x
		sy += m
		sxx += x * x
		sxy += x * m
		n++
	}
	if d := n*sxx - sx*sx; d != 0 {
		return (n*sxy - sx*sy) / d
	}
	return 0
}

// injectCBR feeds MTU packets into dst at the given bit rate until end.
func injectCBR(s *sim.Simulator, dst packet.Node, bps float64, end sim.Time) {
	gap := sim.FromSeconds(float64(packet.MTU*8) / bps)
	var seq int64
	var tick func()
	tick = func() {
		if s.Now() >= end {
			return
		}
		p := packet.NewData(0, seq, packet.MTU, s.Now())
		seq++
		dst.Recv(p)
		s.After(gap, tick)
	}
	s.After(gap, tick)
}

// Fig5Point is one (offered load, predicted rate) measurement on a link.
type Fig5Point struct {
	Link          string
	OfferedMbps   float64
	PredictedMbps float64
	TrueMbps      float64
	// CapRegion marks points where the 2x-dequeue-rate cap binds (the
	// dashed slanted line in the figure).
	CapRegion bool
}

// fig5RatePrediction reproduces Fig. 5: the estimator's predictions for a
// non-backlogged user across offered loads on three different Wi-Fi
// links. Near and above saturation the prediction lands within 5% of the
// true link capacity.
func fig5RatePrediction(p Params) ([]Fig5Point, error) {
	loads := []float64{1, 2, 4, 6, 8, 10, 14, 18, 22, 26, 30, 36, 42, 48}
	var out []Fig5Point
	for i, mcs := range []int{2, 4, 6} { // Link1..Link3's fixed MCS
		name := fmt.Sprintf("Link%d", i+1)
		cfg := wifi.DefaultLinkConfig()
		cfg.MCS = wifi.FixedMCS(mcs)
		trueCap := wifi.TrueCapacityBps(cfg, 0) / 1e6
		for _, load := range loads {
			s := sim.New(p.Seed)
			est := wifi.NewEstimator(cfg.MaxBatch, packet.MTU, 40*sim.Millisecond)
			sink := &packet.Sink{}
			link := wifi.NewLink(s, cfg, qdisc.NewDropTail(1000), sink, est)
			injectCBR(s, link, load*1e6, 12*sim.Second)
			// Sample the estimate every 100 ms after settling.
			var sum float64
			var n int
			var sample func()
			sample = func() {
				now := s.Now()
				if now >= 2*sim.Second {
					if v := est.RateBps(now); v > 0 {
						sum += v / 1e6
						n++
					}
				}
				if now < 12*sim.Second {
					s.After(100*sim.Millisecond, sample)
				}
			}
			s.After(100*sim.Millisecond, sample)
			s.RunUntil(12 * sim.Second)
			pt := Fig5Point{Link: name, OfferedMbps: load, TrueMbps: trueCap}
			if n > 0 {
				pt.PredictedMbps = sum / float64(n)
			}
			pt.CapRegion = 2*load < trueCap
			out = append(out, pt)
		}
	}
	return out, nil
}

// WiFiScheme names one Fig. 10 contender; ABC appears at three delay
// thresholds.
type WiFiScheme struct {
	Label  string
	Scheme string
	ABCdt  sim.Time
}

// fig10SchemeSet is the paper's Wi-Fi comparison set.
var fig10SchemeSet = []WiFiScheme{
	{Label: "ABC_20", Scheme: "ABC", ABCdt: 20 * sim.Millisecond},
	{Label: "ABC_60", Scheme: "ABC", ABCdt: 60 * sim.Millisecond},
	{Label: "ABC_100", Scheme: "ABC", ABCdt: 100 * sim.Millisecond},
	{Label: "Cubic+Codel", Scheme: "Cubic+Codel"},
	{Label: "Copa", Scheme: "Copa"},
	{Label: "Vegas", Scheme: "Vegas"},
	{Label: "BBR", Scheme: "BBR"},
	{Label: "PCC", Scheme: "PCC"},
	{Label: "Cubic", Scheme: "Cubic"},
}

// runWiFi runs nUsers backlogged flows of one scheme over the modelled
// 802.11n link for the duration and reports total throughput and the
// mean per-user p95 one-way delay, matching Fig. 10's metrics. The link
// is an ordinary LinkSpec of Kind "wifi", so the run goes through the
// same topology harness as every cellular figure.
func runWiFi(o RunOptions, ws WiFiScheme, nUsers int, mcs wifi.MCS, dur sim.Time, seed int64) (metrics.Summary, error) {
	// The Wi-Fi links reach ~50 Mbit/s; at dt = 100 ms the standing
	// queue alone is ~400 packets, so the AP buffer must be deeper than
	// the cellular 250 (commodity APs buffer ~1000 frames).
	const buf = 1000
	wl := &WiFiLinkSpec{MCS: mcs}
	q := QdiscSpec{Kind: "auto", Buffer: buf}
	if ws.Scheme == "ABC" {
		rc := abc.DefaultRouterConfig()
		rc.Window = 40 * sim.Millisecond
		if ws.ABCdt > 0 {
			rc.DelayThreshold = ws.ABCdt
		}
		q = QdiscSpec{Kind: "abc", Buffer: buf, ABCConfig: &rc}
		wl.Estimate = true
	}

	flows := make([]FlowSpec, nUsers)
	for u := range flows {
		flows[u] = FlowSpec{Scheme: ws.Scheme}
	}
	res, _, err := o.Run(Spec{
		Seed:     seed,
		Duration: dur,
		Warmup:   3 * sim.Second,
		RTT:      60 * sim.Millisecond,
		Links:    []LinkSpec{{Wifi: wl, Qdisc: q}},
		Flows:    flows,
	})
	if err != nil {
		return metrics.Summary{}, err
	}

	sum := metrics.Summary{Scheme: ws.Label}
	var p95Sum, meanSum float64
	for i := range res.Flows {
		f := &res.Flows[i]
		sum.TputMbps += f.TputMbps
		p95Sum += f.Delay.P95()
		meanSum += f.Delay.Mean()
	}
	sum.P95Ms = p95Sum / float64(nUsers)
	sum.MeanMs = meanSum / float64(nUsers)
	return sum, nil
}

// fig10WiFi reproduces Fig. 10 (or Fig. 14 with the Brownian walk): all
// schemes on the varying Wi-Fi link.
func fig10WiFi(nUsers int, mcs wifi.MCS, p Params) ([]metrics.Summary, error) {
	out := make([]metrics.Summary, len(fig10SchemeSet))
	err := forEachCell(p.RunOptions, len(fig10SchemeSet), func(i int) string {
		return fmt.Sprintf("fig10 wifi users=%d scheme=%s seed=%d", nUsers, fig10SchemeSet[i], p.Seed)
	}, func(i int) error {
		s, err := runWiFi(p.RunOptions, fig10SchemeSet[i], nUsers, mcs, p.Dur, p.Seed)
		out[i] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fig10 runs -users users (at least one) under the alternating MCS.
func fig10(p Params) ([]metrics.Summary, error) {
	return fig10WiFi(max(p.Users, 1), wifi.AlternatingMCS(), p)
}

// fig14 runs one user under the seeded Brownian MCS walk.
func fig14(p Params) ([]metrics.Summary, error) {
	return fig10WiFi(1, wifi.BrownianMCS(p.Seed), p)
}

// fig5MaxErrorBacklogged returns the worst relative prediction error
// among backlogged points (offered ≥ capacity), the paper's 5% claim.
func fig5MaxErrorBacklogged(points []Fig5Point) float64 {
	worst := 0.0
	for _, p := range points {
		if p.OfferedMbps < p.TrueMbps {
			continue
		}
		e := math.Abs(p.PredictedMbps-p.TrueMbps) / p.TrueMbps
		if e > worst {
			worst = e
		}
	}
	return worst
}

func printFig5(w io.Writer, points []Fig5Point) {
	for _, p := range points {
		fmt.Fprintf(w, "%-6s offered=%5.1f  predicted=%6.2f  true=%6.2f  cap=%v\n",
			p.Link, p.OfferedMbps, p.PredictedMbps, p.TrueMbps, p.CapRegion)
	}
	fmt.Fprintf(w, "worst backlogged error: %.1f%% (paper: within 5%%)\n",
		fig5MaxErrorBacklogged(points)*100)
}

func printFig4(w io.Writer, r *Fig4Result) {
	fmt.Fprintf(w, "samples: %d, fitted slope %.3f ms/frame, theory S/R %.3f ms/frame\n",
		len(r.Samples), r.FittedSlopeMs, r.TheorySlopeMs)
	batches := make([]int, 0, len(r.MeanTIA))
	for b := range r.MeanTIA {
		batches = append(batches, b)
	}
	sort.Ints(batches)
	for _, b := range batches {
		fmt.Fprintf(w, "batch=%2d mean TIA=%6.2f ms\n", b, r.MeanTIA[b])
	}
}
