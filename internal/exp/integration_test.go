package exp

import (
	"math"
	"testing"

	"abc/internal/sim"
	"abc/internal/trace"
	"abc/internal/wifi"
)

// TestFig3AIConvergesMIMDDoesNot checks the Fig. 3 headline end to end:
// the additive-increase term turns MIMD into a fair MAIMD.
func TestFig3AIConvergesMIMDDoesNot(t *testing.T) {
	if testing.Short() {
		t.Skip("250 s scenario")
	}
	with, err := fig3Fairness(RunOptions{}, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	without, err := fig3Fairness(RunOptions{}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("jain with AI=%.3f without=%.3f", with.JainAllActive, without.JainAllActive)
	if with.JainAllActive < 0.9 {
		t.Errorf("with AI: Jain %.3f < 0.9", with.JainAllActive)
	}
	if without.JainAllActive > with.JainAllActive-0.1 {
		t.Errorf("MIMD (%.3f) should be clearly less fair than MAIMD (%.3f)",
			without.JainAllActive, with.JainAllActive)
	}
}

// TestFig6DualWindowTracksBottleneckSwitches checks the Fig. 6 behaviour:
// low tracking error across wired/wireless bottleneck switches.
func TestFig6DualWindowTracksBottleneckSwitches(t *testing.T) {
	r, err := fig6NonABCBottleneck(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tracking error %.1f%%, p95 qdelay %.0f ms", r.TrackError*100, r.QDelayP95)
	if r.TrackError > 0.15 {
		t.Errorf("tracking error %.1f%% too high", r.TrackError*100)
	}
	// Both windows must have been sampled and the cap respected: the
	// larger window stays within ~2x the in-flight implied by the other.
	if len(r.WABC.Values) == 0 || len(r.WCubic.Values) == 0 {
		t.Fatal("window series missing")
	}
}

// TestFig7FairSharingLowABCDelay checks Fig. 7: fair sharing with Cubic
// while ABC's queue stays an order of magnitude shorter.
func TestFig7FairSharingLowABCDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("200 s scenario")
	}
	r, err := fig7Coexistence(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("steady=%v jain=%.3f abcQ=%.0fms cubicQ=%.0fms",
		r.SteadyTput, r.Jain, r.ABCQDelayP95, r.CubicQDelayP95)
	if r.Jain < 0.85 {
		t.Errorf("Jain %.3f < 0.85", r.Jain)
	}
	if r.ABCQDelayP95 > r.CubicQDelayP95/4 {
		t.Errorf("ABC queue p95 %.0f ms not clearly below Cubic's %.0f ms",
			r.ABCQDelayP95, r.CubicQDelayP95)
	}
}

// TestFig8TwoHopABCStillWins checks the multi-ABC-bottleneck path: ABC
// keeps a better delay profile than Cubic on the two-hop scenario.
func TestFig8TwoHopABCStillWins(t *testing.T) {
	sums, err := fig8Scatter(UplinkDownlink, Params{Schemes: []string{"ABC", "Cubic"}, Dur: 20 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var abcP95, cubicP95, abcTput, cubicTput float64
	for _, s := range sums {
		t.Logf("%v", s)
		switch s.Scheme {
		case "ABC":
			abcP95, abcTput = s.P95Ms, s.TputMbps
		case "Cubic":
			cubicP95, cubicTput = s.P95Ms, s.TputMbps
		}
	}
	if abcP95 >= cubicP95 {
		t.Errorf("ABC p95 %.0f ms should beat Cubic's %.0f ms across two cell hops", abcP95, cubicP95)
	}
	if abcTput < cubicTput/2 {
		t.Errorf("ABC throughput %.1f collapsed vs Cubic %.1f", abcTput, cubicTput)
	}
}

// TestFig9OrderingMatchesPaper spot-checks the qualitative ordering the
// paper reports on the cellular corpus: Cubic ≥ tput but ≫ delay; ABC
// beats Cubic+Codel on throughput at comparable delay.
func TestFig9OrderingMatchesPaper(t *testing.T) {
	bars, err := fig9Bars(Params{Schemes: []string{"ABC", "Cubic", "Cubic+Codel"}, Dur: 20 * sim.Second, Seed: 1},
		[]string{"Verizon1", "TMobile1"})
	if err != nil {
		t.Fatal(err)
	}
	au, _, ap := bars.Average("ABC")
	cu, _, cp := bars.Average("Cubic")
	ccu, _, ccp := bars.Average("Cubic+Codel")
	t.Logf("ABC %.2f/%.0fms Cubic %.2f/%.0fms Cubic+Codel %.2f/%.0fms", au, ap, cu, cp, ccu, ccp)
	if cp < 2*ap {
		t.Errorf("Cubic p95 %.0f ms should be ≫ ABC's %.0f ms", cp, ap)
	}
	if au < ccu {
		t.Errorf("ABC utilization %.2f should beat Cubic+Codel's %.2f", au, ccu)
	}
	if cu < au {
		t.Errorf("Cubic utilization %.2f should be ≥ ABC's %.2f", cu, au)
	}
}

// TestFig10ABCParetoOnWiFi checks Fig. 10's claim on the modelled Wi-Fi
// link: ABC(dt=100) achieves Cubic-class throughput at far lower delay.
func TestFig10ABCParetoOnWiFi(t *testing.T) {
	byLabel := map[string]struct{ tput, p95 float64 }{}
	for _, ws := range []WiFiScheme{
		{Label: "ABC_100", Scheme: "ABC", ABCdt: 100 * sim.Millisecond},
		{Label: "Cubic", Scheme: "Cubic"},
		{Label: "Vegas", Scheme: "Vegas"},
	} {
		s, err := runWiFi(RunOptions{}, ws, 1, wifi.AlternatingMCS(), 20*sim.Second, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s tput=%.1f p95=%.0f", ws.Label, s.TputMbps, s.P95Ms)
		byLabel[ws.Label] = struct{ tput, p95 float64 }{s.TputMbps, s.P95Ms}
	}
	abc, cubic, vegas := byLabel["ABC_100"], byLabel["Cubic"], byLabel["Vegas"]
	if abc.tput < 0.75*cubic.tput {
		t.Errorf("ABC tput %.1f too far below Cubic %.1f", abc.tput, cubic.tput)
	}
	if abc.p95 >= cubic.p95 {
		t.Errorf("ABC p95 %.0f should beat Cubic %.0f", abc.p95, cubic.p95)
	}
	if abc.tput < vegas.tput {
		t.Errorf("ABC tput %.1f should beat Vegas %.1f", abc.tput, vegas.tput)
	}
}

// TestFig12MaxMinFairZombieUnfair checks Fig. 12's comparison at one
// offered load.
func TestFig12MaxMinFairZombieUnfair(t *testing.T) {
	cfg := Fig12Config{Runs: 2, Duration: 25 * sim.Second, Loads: []float64{0.25}, Seed: 1}
	mm, err := fig12WeightPolicy(RunOptions{}, "maxmin", cfg)
	if err != nil {
		t.Fatal(err)
	}
	zb, err := fig12WeightPolicy(RunOptions{}, "zombie", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("maxmin ABC %.1f vs Cubic %.1f; zombie ABC %.1f vs Cubic %.1f",
		mm[0].ABCMean, mm[0].CubicMean, zb[0].ABCMean, zb[0].CubicMean)
	mmGap := math.Abs(mm[0].ABCMean-mm[0].CubicMean) / mm[0].CubicMean
	zbGap := (zb[0].CubicMean - zb[0].ABCMean) / zb[0].CubicMean
	if mmGap > 0.35 {
		t.Errorf("maxmin gap %.0f%% too large", mmGap*100)
	}
	if zbGap < mmGap {
		t.Errorf("zombie gap (%.0f%%) should exceed maxmin gap (%.0f%%)", zbGap*100, mmGap*100)
	}
}

// TestFig18ABCHoldsAcrossRTTs: ABC outperforms Cubic's delay at every
// propagation RTT.
func TestFig18ABCHoldsAcrossRTTs(t *testing.T) {
	out, err := fig18RTTSweep(Params{Schemes: []string{"ABC", "Cubic"}, Dur: 20 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rtt := range []int{20, 50, 100, 200} {
		a, c := out[rtt]["ABC"], out[rtt]["Cubic"]
		t.Logf("rtt=%d: ABC %.2f/%.0fms Cubic %.2f/%.0fms",
			rtt, a.Utilization, a.P95Ms, c.Utilization, c.P95Ms)
		if a.P95Ms >= c.P95Ms {
			t.Errorf("rtt %d ms: ABC p95 %.0f not below Cubic %.0f", rtt, a.P95Ms, c.P95Ms)
		}
		if a.Utilization < 0.6 {
			t.Errorf("rtt %d ms: ABC utilization %.2f too low", rtt, a.Utilization)
		}
	}
}

// TestPKABCHalvesDelay checks §6.6: future knowledge cuts p95 queuing
// delay substantially without wrecking utilization.
func TestPKABCHalvesDelay(t *testing.T) {
	r, err := pkABC(Params{Dur: 30 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ABC %.0fms@%.2f -> PK %.0fms@%.2f",
		r.QDelayP95ABC, r.ABC.Utilization, r.QDelayP95PK, r.PK.Utilization)
	if r.QDelayP95PK > 0.7*r.QDelayP95ABC {
		t.Errorf("PK p95 %.0f ms not clearly below ABC's %.0f ms", r.QDelayP95PK, r.QDelayP95ABC)
	}
	if r.PK.Utilization < r.ABC.Utilization-0.15 {
		t.Errorf("PK utilization dropped too much: %.2f vs %.2f",
			r.PK.Utilization, r.ABC.Utilization)
	}
}

// TestProxiedEncodingEquivalent checks §5.1.2: the proxied deployment
// (brake = CE, unmodified receiver) performs like the NS-bit deployment.
func TestProxiedEncodingEquivalent(t *testing.T) {
	rows, err := proxied(Params{Dur: 20 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	std, prox := rows[0], rows[1]
	t.Logf("standard: %v", std)
	t.Logf("proxied:  %v", prox)
	if math.Abs(std.Utilization-prox.Utilization) > 0.1 {
		t.Errorf("utilization diverged: %.2f vs %.2f", std.Utilization, prox.Utilization)
	}
	if prox.P95Ms > std.P95Ms*1.5+20 {
		t.Errorf("proxied delay %.0f ms diverged from standard %.0f ms", prox.P95Ms, std.P95Ms)
	}
}

// TestAblationsProduceMonotoneTradeoffs sanity-checks the parameter
// sweeps: larger dt must not reduce delay, and η=1 must not lower
// utilization versus η=0.9.
func TestAblationsProduceMonotoneTradeoffs(t *testing.T) {
	sweeps, err := ablations(Params{Dur: 20 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dt, eta := sweeps[0].Points, sweeps[2].Points
	if dt[0].Param != "dt_ms" || eta[0].Param != "eta" {
		t.Fatalf("sweep order changed: got %s, %s", dt[0].Param, eta[0].Param)
	}
	for _, p := range dt {
		t.Logf("dt=%v: util=%.2f p95=%.0f", p.Value, p.Util, p.P95Ms)
	}
	if dt[0].P95Ms > dt[len(dt)-1].P95Ms {
		t.Errorf("p95 at dt=%v (%.0f) exceeds dt=%v (%.0f)",
			dt[0].Value, dt[0].P95Ms, dt[len(dt)-1].Value, dt[len(dt)-1].P95Ms)
	}
	for _, p := range eta {
		t.Logf("eta=%v: util=%.2f p95=%.0f", p.Value, p.Util, p.P95Ms)
	}
	lo, hi := eta[0], eta[len(eta)-1]
	if hi.Util < lo.Util-0.03 {
		t.Errorf("eta=%.2f util %.2f below eta=%.2f util %.2f", hi.Value, hi.Util, lo.Value, lo.Util)
	}
}

// TestUplinkTraceIndependence: the two hops of the UplinkDownlink path use
// different traces, so their capacities differ over time.
func TestUplinkTraceIndependence(t *testing.T) {
	up := trace.MustNamedCellular("Verizon2")
	down := trace.MustNamedCellular("Verizon1")
	same := 0
	for at := sim.Second; at < 30*sim.Second; at += sim.Second {
		a := up.CapacityBps(at, sim.Second)
		b := down.CapacityBps(at, sim.Second)
		if math.Abs(a-b) < 1e3 {
			same++
		}
	}
	if same > 5 {
		t.Errorf("uplink and downlink traces look identical (%d matching samples)", same)
	}
}
