package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"abc/internal/packet"
	"abc/internal/sim"
)

func TestParseBasic(t *testing.T) {
	tr, err := Parse("t", strings.NewReader("0\n5\n5\n10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Period() != 10*sim.Millisecond {
		t.Errorf("period = %v", tr.Period())
	}
	if tr.Opportunities() != 3 {
		t.Errorf("opportunities = %d", tr.Opportunities())
	}
}

func TestParseRejectsDecreasing(t *testing.T) {
	if _, err := Parse("t", strings.NewReader("5\n3\n")); err == nil {
		t.Error("expected error for decreasing timestamps")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse("t", strings.NewReader("abc\n")); err == nil {
		t.Error("expected error for non-numeric line")
	}
	if _, err := Parse("t", strings.NewReader("")); err == nil {
		t.Error("expected error for empty trace")
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	tr, err := Parse("t", strings.NewReader("# header\n\n1\n2\n\n8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Opportunities() != 2 { // 1, 2 (8 is the period marker)
		t.Errorf("opportunities = %d", tr.Opportunities())
	}
}

func TestWriteToRoundTrip(t *testing.T) {
	orig, err := New("t", []sim.Time{
		0, 2 * sim.Millisecond, 2 * sim.Millisecond, 7 * sim.Millisecond,
	}, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Period() != orig.Period() {
		t.Errorf("period %v != %v", back.Period(), orig.Period())
	}
	if back.Opportunities() != orig.Opportunities() {
		t.Errorf("ops %d != %d", back.Opportunities(), orig.Opportunities())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("t", nil, sim.Second); err == nil {
		t.Error("empty ops accepted")
	}
	if _, err := New("t", []sim.Time{0}, 0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := New("t", []sim.Time{sim.Second}, sim.Second); err == nil {
		t.Error("op at period accepted")
	}
	if _, err := New("t", []sim.Time{-1}, sim.Second); err == nil {
		t.Error("negative op accepted")
	}
}

func TestNextOpportunityWrapsPeriods(t *testing.T) {
	tr, _ := New("t", []sim.Time{2 * sim.Millisecond, 8 * sim.Millisecond}, 10*sim.Millisecond)
	cases := []struct{ now, want sim.Time }{
		{0, 2 * sim.Millisecond},
		{2 * sim.Millisecond, 8 * sim.Millisecond}, // strictly after
		{8 * sim.Millisecond, 12 * sim.Millisecond},
		{9 * sim.Millisecond, 12 * sim.Millisecond},
		{12 * sim.Millisecond, 18 * sim.Millisecond},
		{25 * sim.Millisecond, 28 * sim.Millisecond},
	}
	for _, c := range cases {
		if got := tr.NextOpportunity(c.now); got != c.want {
			t.Errorf("NextOpportunity(%v) = %v, want %v", c.now, got, c.want)
		}
	}
}

func TestCountIn(t *testing.T) {
	tr, _ := New("t", []sim.Time{0, 5 * sim.Millisecond}, 10*sim.Millisecond)
	cases := []struct {
		from, to sim.Time
		want     int64
	}{
		{0, 10 * sim.Millisecond, 2},
		{0, 100 * sim.Millisecond, 20},
		{0, 5 * sim.Millisecond, 1},
		{5 * sim.Millisecond, 10 * sim.Millisecond, 1},
		{3 * sim.Millisecond, 3 * sim.Millisecond, 0},
		{10 * sim.Millisecond, 20 * sim.Millisecond, 2},
	}
	for _, c := range cases {
		if got := tr.CountIn(c.from, c.to); got != c.want {
			t.Errorf("CountIn(%v,%v) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

// TestCountAdditivityProperty: CountIn is additive over adjacent
// intervals for arbitrary traces — the invariant the delivery loop and
// the utilization accounting both rely on.
func TestCountAdditivityProperty(t *testing.T) {
	f := func(opsRaw []uint16, aRaw, bRaw, cRaw uint32) bool {
		if len(opsRaw) == 0 {
			return true
		}
		period := sim.Second
		ops := make([]sim.Time, 0, len(opsRaw))
		for _, o := range opsRaw {
			ops = append(ops, sim.Time(o)*sim.Microsecond%period)
		}
		tr, err := New("q", ops, period)
		if err != nil {
			return true
		}
		pts := []sim.Time{
			sim.Time(aRaw) * sim.Microsecond,
			sim.Time(bRaw) * sim.Microsecond,
			sim.Time(cRaw) * sim.Microsecond,
		}
		// Sort the three points.
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if pts[j] < pts[i] {
					pts[i], pts[j] = pts[j], pts[i]
				}
			}
		}
		return tr.CountIn(pts[0], pts[2]) == tr.CountIn(pts[0], pts[1])+tr.CountIn(pts[1], pts[2])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConstantRate(t *testing.T) {
	// Below 6 kbit/s an opportunity is more than 2 s from the next, and
	// the period is that gap.
	for _, bps := range []float64{12e6, 7e3, 4e3, 100} {
		if got := Constant("c", bps).AvgRateBps(); math.Abs(got-bps)/bps > 0.01 {
			t.Errorf("Constant(%v): avg rate %.0f", bps, got)
		}
	}
	tr := Constant("c", 12e6)
	// Capacity over any full second is the same.
	c1 := tr.CapacityBps(2*sim.Second, sim.Second)
	c2 := tr.CapacityBps(5*sim.Second, sim.Second)
	if math.Abs(c1-c2) > 1 {
		t.Errorf("capacity not constant: %v vs %v", c1, c2)
	}
}

func TestSquareWaveRates(t *testing.T) {
	tr := SquareWave("sq", 12e6, 24e6, 500*sim.Millisecond)
	hi := tr.CapacityBps(450*sim.Millisecond, 300*sim.Millisecond)
	lo := tr.CapacityBps(950*sim.Millisecond, 300*sim.Millisecond)
	if math.Abs(hi-24e6)/24e6 > 0.05 {
		t.Errorf("high phase %.1f Mbps", hi/1e6)
	}
	if math.Abs(lo-12e6)/12e6 > 0.05 {
		t.Errorf("low phase %.1f Mbps", lo/1e6)
	}
	if avg := tr.AvgRateBps(); math.Abs(avg-18e6)/18e6 > 0.02 {
		t.Errorf("avg %.1f Mbps, want 18", avg/1e6)
	}
}

func TestStepsPattern(t *testing.T) {
	tr := Steps("st", []float64{5e6, 15e6}, sim.Second)
	a := tr.CapacityBps(900*sim.Millisecond, 800*sim.Millisecond)
	b := tr.CapacityBps(1900*sim.Millisecond, 800*sim.Millisecond)
	if math.Abs(a-5e6)/5e6 > 0.05 || math.Abs(b-15e6)/15e6 > 0.05 {
		t.Errorf("steps: %.1f / %.1f Mbps", a/1e6, b/1e6)
	}
}

func TestFutureCapacityLooksAhead(t *testing.T) {
	tr := SquareWave("sq", 0.1e6, 24e6, 500*sim.Millisecond)
	// Standing just before the high→low transition, the future window
	// must see the low rate while the trailing window sees the high.
	at := 480 * sim.Millisecond
	past := tr.CapacityBps(at, 200*sim.Millisecond)
	future := tr.FutureCapacityBps(at, 200*sim.Millisecond)
	if future >= past {
		t.Errorf("future %.1f Mbps should be below past %.1f Mbps", future/1e6, past/1e6)
	}
}

func TestNamedCellularAllExist(t *testing.T) {
	for _, name := range CellularNames {
		tr, err := NamedCellular(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		avg := tr.AvgRateBps() / 1e6
		if avg < 1 || avg > 40 {
			t.Errorf("%s: avg rate %.1f Mbps out of LTE range", name, avg)
		}
		if tr.Period() != 60*sim.Second {
			t.Errorf("%s: period %v", name, tr.Period())
		}
	}
	if _, err := NamedCellular("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestCellularShorterThanOneStep: a trace shorter than the walk's 100 ms
// step is one step of the walk, cut to its duration.
func TestCellularShorterThanOneStep(t *testing.T) {
	for _, d := range []sim.Time{sim.Millisecond, 50 * sim.Millisecond, 100*sim.Millisecond - 1} {
		tr := Cellular("short", CellParams{Seed: 1, Duration: d, MeanMbps: 10})
		if tr.Period() != d || tr.Opportunities() < 1 {
			t.Errorf("%v: period %v, %d opportunities", d, tr.Period(), tr.Opportunities())
		}
	}
}

// TestCellularCheck: Check holds a cellular trace to the loop bound of
// Generator.Trace's synthetic traces, at the walk's highest rate.
func TestCellularCheck(t *testing.T) {
	for _, c := range []struct {
		p  CellParams
		ok bool
	}{
		{CellParams{}, true}, // 60 s at 10 Mbit/s, as Cellular makes it
		{CellParams{Duration: 4000 * sim.Second, MeanMbps: 1}, true},
		{CellParams{Duration: 4200 * sim.Second, MeanMbps: 1}, false}, // more than 2^22 ms
		{CellParams{Duration: 1200 * sim.Second, MeanMbps: 10}, true},
		{CellParams{Duration: 1300 * sim.Second, MeanMbps: 10}, false}, // 2^22 packets at 40 Mbit/s
		{CellParams{Duration: 1300 * sim.Second, MeanMbps: 10, MaxMbps: 20}, true},
	} {
		if err := c.p.Check(); (err == nil) != c.ok {
			t.Errorf("%+v: Check() = %v, want ok %v", c.p, err, c.ok)
		}
	}
}

func TestCellularDeterminism(t *testing.T) {
	a := MustNamedCellular("Verizon1")
	b := MustNamedCellular("Verizon1")
	if a.Opportunities() != b.Opportunities() {
		t.Error("same-name traces differ")
	}
}

// TestCellularVariability checks the paper's premise: the rate varies by
// several x within short horizons.
func TestCellularVariability(t *testing.T) {
	tr := MustNamedCellular("Verizon1")
	minR, maxR := math.Inf(1), 0.0
	for at := sim.Second; at < tr.Period(); at += 500 * sim.Millisecond {
		r := tr.CapacityBps(at, 500*sim.Millisecond)
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if maxR/math.Max(minR, 1) < 3 {
		t.Errorf("trace not variable enough: min %.1f max %.1f Mbps", minR/1e6, maxR/1e6)
	}
}

func TestCapacityUsesMTUPerOpportunity(t *testing.T) {
	tr, _ := New("t", []sim.Time{0}, sim.Millisecond) // 1 op/ms = 12 Mbps
	got := tr.CapacityBps(sim.Second, sim.Second)
	want := float64(packet.MTU*8) * 1000
	if math.Abs(got-want) > 1 {
		t.Errorf("capacity %.0f, want %.0f", got, want)
	}
}

func TestFromRateFuncZeroRate(t *testing.T) {
	tr := FromRateFunc("z", sim.Second, func(sim.Time) float64 { return 0 })
	if tr.Opportunities() != 1 { // degenerate single op
		t.Errorf("ops = %d", tr.Opportunities())
	}
}
