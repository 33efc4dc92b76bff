package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"abc/internal/sim"
)

// exactPercentile is the nearest-rank reference implementation.
func exactPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// valueBound is the engine's guarantee: a percentile is within 2⁻¹⁰ of
// the nearest-rank order statistic, relative to that statistic.
const valueBound = 1.0 / 1024

// distributions generate the delay shapes the paper's experiments see —
// roughly uniform queuing sweeps, bimodal outage/no-outage mixtures,
// heavy-tailed bufferbloat spikes — and the degenerate ones: a constant,
// all zeros, and integer nanoseconds read in milliseconds as
// DelayRecorder.Add produces them.
var distributions = map[string]func(rng *rand.Rand) float64{
	"uniform": func(rng *rand.Rand) float64 { return 10 + 90*rng.Float64() },
	"bimodal": func(rng *rand.Rand) float64 {
		if rng.Float64() < 0.8 {
			return math.Abs(20 + 5*rng.NormFloat64())
		}
		return 400 + 50*rng.NormFloat64()
	},
	"heavytail": func(rng *rand.Rand) float64 {
		// Pareto(alpha=1.5): infinite variance, the worst case for
		// rank sketches.
		return 10 * math.Pow(1-rng.Float64(), -1/1.5)
	},
	"constant": func(*rand.Rand) float64 { return 37.25 },
	"zero":     func(*rand.Rand) float64 { return 0 },
	"nanos": func(rng *rand.Rand) float64 {
		return sim.Time(rng.Int63n(int64(2 * sim.Second))).Millis()
	},
}

var checkedPercentiles = []float64{0, 1, 5, 25, 50, 75, 95, 99, 99.9, 100}

// TestStreamingPercentileMatchesExact: across distribution shapes and
// sizes from 1 to 10⁶, every percentile is within the value bound of the
// sorted slice's nearest-rank value, and equal to it while the samples
// are raw (n <= rawLimit) and at p = 0 and 100.
func TestStreamingPercentileMatchesExact(t *testing.T) {
	sizes := []int{1, 14, 999, rawLimit, rawLimit + 1, 5_000, 200_000}
	if !testing.Short() {
		sizes = append(sizes, 1_000_000)
	}
	for name, gen := range distributions {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(n) + 17))
			var d DelayRecorder
			samples := make([]float64, n)
			for i := range samples {
				samples[i] = gen(rng)
				d.AddSample(samples[i])
			}
			sort.Float64s(samples)
			for _, p := range checkedPercentiles {
				got, want := d.Percentile(p), exactPercentile(samples, p)
				exact := n <= rawLimit || p == 0 || p == 100
				if exact && got != want {
					t.Errorf("%s n=%d p%g: %v, want exactly %v", name, n, p, got, want)
				}
				if math.Abs(got-want) > valueBound*want {
					t.Errorf("%s n=%d p%g: %v is %.4f%% off the order statistic %v",
						name, n, p, got, 100*math.Abs(got-want)/want, want)
				}
			}
		}
	}
}

// TestStreamingSmallInputsExact: up to rawLimit samples the recorder
// reproduces nearest-rank percentiles bit-exactly at every p.
func TestStreamingSmallInputsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{500, rawLimit} {
		var d DelayRecorder
		var raw []float64
		for i := 0; i < n; i++ {
			ts := sim.FromSeconds(rng.Float64() / 4)
			raw = append(raw, ts.Millis())
			d.Add(ts)
		}
		sort.Float64s(raw)
		for p := 0.0; p <= 100; p += 2.5 {
			if got, want := d.Percentile(p), exactPercentile(raw, p); got != want {
				t.Fatalf("n=%d p%.1f: %v != exact %v", n, p, got, want)
			}
		}
	}
}

// allocBytes reports the heap bytes f allocates, measured the way
// testing.AllocsPerRun counts allocations.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamingMemoryBounded: memory follows the range the samples
// cover, not their number. 10⁶ delays between 1 ms and 1 s touch ten
// octaves of 4 KiB; a handful of samples allocate only their own slice,
// and the 1000 samples before a spill about 10 KiB of raw storage.
func TestStreamingMemoryBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var d DelayRecorder
	got := allocBytes(func() {
		for i := 0; i < 1_000_000; i++ {
			d.Add(sim.Millisecond + sim.Time(rng.Int63n(int64(999*sim.Millisecond))))
		}
	})
	// Ten 4 KiB octaves, the raw phase's 10 KiB and the octave index:
	// 51 496 bytes when written.
	if got > 72<<10 {
		t.Errorf("10⁶ samples allocated %d bytes; not fixed-memory", got)
	}
	octaves := 0
	for _, o := range d.hist.octs {
		if o != nil {
			octaves++
		}
	}
	if octaves != 10 || d.hist.raw != nil {
		t.Errorf("10⁶ samples in [1 ms, 1 s) hold %d octaves and %d raw samples, want 10 and 0", octaves, len(d.hist.raw))
	}
	if d.Count() != 1_000_000 {
		t.Errorf("count = %d", d.Count())
	}

	var small DelayRecorder
	got = allocBytes(func() {
		for i := 0; i < 14; i++ {
			small.Add(sim.Time(i+1) * sim.Millisecond)
		}
	})
	// append's doublings to 16 float64s: 16+16+32+64+128 bytes (the
	// allocator's smallest block is 16).
	if got > 256 || small.hist.octs != nil {
		t.Errorf("14 samples allocated %d bytes and %d octave slots, want only the sample slice", got, len(small.hist.octs))
	}

	var spilled DelayRecorder
	got = allocBytes(func() {
		for i := 0; i < rawLimit; i++ {
			spilled.Add(sim.Time(i+1) * sim.Millisecond)
		}
	})
	// The raw phase: append's doublings to rawStep float64s (2040
	// bytes) and one slice of rawLimit (8000, an 8 KiB block); append
	// alone would double its way to 1000 through about 23 KiB.
	if got > 12<<10 || spilled.hist.octs != nil {
		t.Errorf("1000 samples allocated %d bytes and %d octave slots, want at most 12 KiB of raw slices", got, len(spilled.hist.octs))
	}
	spilled.Add(sim.Second)
	if spilled.hist.raw != nil || spilled.Count() != rawLimit+1 {
		t.Errorf("the 1001st sample left %d raw samples and count %d, want 0 and %d", len(spilled.hist.raw), spilled.Count(), rawLimit+1)
	}
}

// TestStreamingMinMaxExact: extremes are tracked exactly.
func TestStreamingMinMaxExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var d DelayRecorder
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 10_000; i++ {
		ts := sim.FromSeconds(rng.ExpFloat64() / 10)
		// Track extremes of the value the recorder actually stores
		// (milliseconds after integer-nanosecond quantization).
		lo = math.Min(lo, ts.Millis())
		hi = math.Max(hi, ts.Millis())
		d.Add(ts)
	}
	if got := d.Percentile(0); got != lo {
		t.Errorf("p0 = %v, want exact min %v", got, lo)
	}
	if got := d.Percentile(100); got != hi {
		t.Errorf("p100 = %v, want exact max %v", got, hi)
	}
}

// TestPercentileIsReadOnly: asking for a percentile changes no later
// answer. Two recorders take the same random-walk stream; one is queried
// every 137 samples, across the raw-to-bucket transition and after it.
func TestPercentileIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var quiet, queried DelayRecorder
	v := 50.0
	for i := 0; i < 50_000; i++ {
		v = math.Max(0.1, v+rng.NormFloat64())
		quiet.AddSample(v)
		queried.AddSample(v)
		if i%137 == 0 {
			_ = queried.P95()
			_ = queried.Percentile(50)
		}
	}
	if quiet.Count() != queried.Count() || quiet.Mean() != queried.Mean() {
		t.Errorf("count/mean: %d/%v unqueried, %d/%v queried", quiet.Count(), quiet.Mean(), queried.Count(), queried.Mean())
	}
	for p := 0.0; p <= 100; p++ {
		if a, b := quiet.Percentile(p), queried.Percentile(p); a != b {
			t.Errorf("p%g: %v unqueried, %v queried", p, a, b)
		}
	}
}

// TestSampleDomain: recorders hold delays, completion times and
// slowdowns, all >= 0. Whatever else arrives is counted, indexes no
// bucket out of range, and reads back as quantile.go's header defines:
// negative and NaN as 0, +Inf and huge values as themselves, subnormals
// to within an absolute 2⁻¹⁰³¹.
func TestSampleDomain(t *testing.T) {
	odd := []float64{-3, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64, 5e-310, 1 << 61, math.MaxFloat64, math.Copysign(0, -1)}
	for _, fill := range []int{0, 2 * rawLimit} { // raw and bucketed
		var d DelayRecorder
		for i := 0; i < fill; i++ {
			d.AddSample(1 + float64(i%100))
		}
		for _, v := range odd {
			d.AddSample(v)
		}
		if d.Count() != fill+len(odd) {
			t.Fatalf("fill=%d: count %d, want %d", fill, d.Count(), fill+len(odd))
		}
		if got := d.Percentile(0); got != 0 || math.Signbit(got) {
			t.Errorf("fill=%d: min %v, want 0 (negative, NaN and -0 record as 0)", fill, got)
		}
		if got := d.Percentile(100); !math.IsInf(got, 1) {
			t.Errorf("fill=%d: max %v, want +Inf", fill, got)
		}
		prev := 0.0
		for p := 0.0; p <= 100; p += 0.5 {
			got := d.Percentile(p)
			if math.IsNaN(got) || got < prev {
				t.Fatalf("fill=%d p%g: %v after %v", fill, p, got, prev)
			}
			prev = got
		}
		// Nor does an odd p index out of range.
		_, _ = d.Percentile(math.NaN()), d.Percentile(math.SmallestNonzeroFloat64)
		// A merge carries them bucket for bucket.
		var m DelayRecorder
		m.Merge(&d)
		for r := uint64(1); r <= d.hist.n; r++ {
			if a, b := m.hist.quantile(r), d.hist.quantile(r); a != b || m.Count() != d.Count() {
				t.Fatalf("fill=%d rank %d: %v after a merge, %v before", fill, r, a, b)
			}
		}
	}

	// Each odd value alone above a bucketed floor of zeros: p100 is
	// exact, and the rank just below it (the value's own bucket when two
	// copies are recorded) is within the bound.
	for _, v := range []float64{5e-310, 1 << 61, math.MaxFloat64, math.Inf(1)} {
		var d DelayRecorder
		for i := 0; i < 2*rawLimit; i++ {
			d.AddSample(0)
		}
		d.AddSample(v)
		d.AddSample(v)
		got := d.hist.quantile(d.hist.n - 1)
		if got != v && !(math.Abs(got-v) <= math.Max(valueBound*v, 0x1p-1031)) {
			t.Errorf("%g: second-largest reads %g", v, got)
		}
	}
}
