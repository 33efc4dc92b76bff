package exp

import (
	"math"
	"testing"

	"abc/internal/sim"
	"abc/internal/trace"
	"abc/internal/wifi"
)

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

// TestFig8TwoHopABCStillWins checks the multi-ABC-bottleneck path: ABC
// keeps its throughput against Cubic on the two-hop scenario. Its delay
// advantage there is claim fig8/min-of-marks.
func TestFig8TwoHopABCStillWins(t *testing.T) {
	sums, err := fig8Scatter(UplinkDownlink, Params{Schemes: []string{"ABC", "Cubic"}, Dur: 20 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var abcTput, cubicTput float64
	for _, s := range sums {
		t.Logf("%v", s)
		switch s.Scheme {
		case "ABC":
			abcTput = s.TputMbps
		case "Cubic":
			cubicTput = s.TputMbps
		}
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
