package metrics

import (
	"encoding/json"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"abc/internal/sim"
)

func TestDelayRecorderMeanPercentile(t *testing.T) {
	var d DelayRecorder
	for i := 1; i <= 100; i++ {
		d.Add(sim.Time(i) * sim.Millisecond)
	}
	if d.Count() != 100 {
		t.Errorf("count = %d", d.Count())
	}
	if got := d.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if got := d.Percentile(95); got != 95 {
		t.Errorf("p95 = %v", got)
	}
	if got := d.P95(); got != 95 {
		t.Errorf("P95() = %v", got)
	}
	if got := d.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := d.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
}

func TestDelayRecorderEmpty(t *testing.T) {
	var d DelayRecorder
	if d.Mean() != 0 || d.P95() != 0 {
		t.Error("empty recorder must return 0")
	}
}

func TestDelayRecorderAddAfterPercentile(t *testing.T) {
	var d DelayRecorder
	d.Add(10 * sim.Millisecond)
	_ = d.P95()
	d.Add(5 * sim.Millisecond)
	if got := d.Percentile(0); got != 5 {
		t.Errorf("min after re-sort = %v", got)
	}
}

// TestPercentileMonotonicProperty: percentiles are monotone in p and
// bounded by the sample range.
func TestPercentileMonotonicProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var d DelayRecorder
		for _, v := range raw {
			d.Add(sim.Time(v) * sim.Microsecond)
		}
		prev := -1.0
		for p := 0.0; p <= 100; p += 7 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		sorted := append([]uint16(nil), raw...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		min := float64(sorted[0]) / 1000
		max := float64(sorted[len(sorted)-1]) / 1000
		return d.Percentile(0) >= min-1e-9 && d.Percentile(100) <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJainIndexKnownValues(t *testing.T) {
	if got := float64(JainIndex([]float64{5, 5, 5, 5})); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares: %v", got)
	}
	if got := float64(JainIndex([]float64{1, 0, 0, 0})); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("one hog of four: %v", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

// TestJainIndexAllZeroIsNaN: rates that are all 0 are a run that
// delivered nothing, and its index reads NaN, not a perfect 1. In a
// result it marshals to JSON as null, and any other index as the
// float64 it is.
func TestJainIndexAllZeroIsNaN(t *testing.T) {
	for _, xs := range [][]float64{{0}, {0, 0}, {0, 0, 0, 0}} {
		if got := JainIndex(xs); !math.IsNaN(float64(got)) {
			t.Errorf("JainIndex(%v) = %v, want NaN", xs, got)
		}
	}
	for _, x := range []float64{math.NaN(), 0.25, 1, 1e-7} {
		want := []byte("null")
		if !math.IsNaN(x) {
			want, _ = json.Marshal(x)
		}
		got, err := json.Marshal(Fairness(x))
		if err != nil || string(got) != string(want) {
			t.Errorf("Fairness(%v) marshals to %s (%v), want %s", x, got, err, want)
		}
	}
}

// TestJainIndexBoundsProperty: 1/n <= J <= 1 for any non-negative input
// with at least one positive value.
func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		anyPos := false
		for i, v := range raw {
			xs[i] = float64(v)
			if v > 0 {
				anyPos = true
			}
		}
		if !anyPos {
			return true
		}
		j := float64(JainIndex(xs))
		n := float64(len(xs))
		return j >= 1/n-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUtilization(t *testing.T) {
	if got := Utilization(500, 1000); got != 0.5 {
		t.Errorf("util = %v", got)
	}
	if got := Utilization(10, 0); got != 0 {
		t.Errorf("zero capacity: %v", got)
	}
}

func TestRateCounter(t *testing.T) {
	var r RateCounter
	r.Add(0, 1500)
	r.Add(sim.Second/2, 1500)
	bps := r.SampleBps(sim.Second)
	if math.Abs(bps-24000) > 1 {
		t.Errorf("rate = %v", bps)
	}
	// Next interval with no bytes: zero.
	if got := r.SampleBps(2 * sim.Second); got != 0 {
		t.Errorf("idle rate = %v", got)
	}
	if r.TotalBytes() != 3000 {
		t.Errorf("total = %d", r.TotalBytes())
	}
	// A delivery recorded ahead of its instant counts in the interval
	// that holds the instant; one at a sample instant counts after it.
	r.Add(3*sim.Second, 1500)
	r.Add(4*sim.Second+1, 1500)
	if got := r.SampleBps(3 * sim.Second); got != 0 {
		t.Errorf("rate before the delivery's instant = %v", got)
	}
	if got := r.SampleBps(4 * sim.Second); math.Abs(got-12000) > 1 {
		t.Errorf("rate over the delivery's interval = %v", got)
	}
	if got := r.SampleBps(5 * sim.Second); math.Abs(got-12000) > 1 {
		t.Errorf("rate over the last delivery's interval = %v", got)
	}
}

func TestTimeseriesSampling(t *testing.T) {
	ts := &Timeseries{Period: 100 * sim.Millisecond}
	for i := 1; i <= 10; i++ {
		ts.Add(sim.Time(i)*ts.Period, float64(i))
	}
	if len(ts.Values) != 10 || ts.Times[0] != 0.1 || ts.Times[9] != 1 {
		t.Fatalf("samples = %d, times %v", len(ts.Values), ts.Times)
	}
	if ts.Mean() != 5.5 {
		t.Errorf("mean = %v", ts.Mean())
	}
	if ts.Max() != 10 {
		t.Errorf("max = %v", ts.Max())
	}
}

func TestTimeseriesEmpty(t *testing.T) {
	ts := &Timeseries{}
	if ts.Mean() != 0 || ts.Max() != 0 {
		t.Error("empty timeseries stats must be 0")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Scheme: "ABC", Utilization: 0.9, TputMbps: 10, MeanMs: 50, P95Ms: 100}
	str := s.String()
	if len(str) == 0 {
		t.Error("empty summary string")
	}
}
