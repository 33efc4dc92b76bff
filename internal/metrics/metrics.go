// Package metrics collects the measurements the paper reports: per-packet
// delay distributions (mean and percentiles), link utilization against
// delivery opportunities, throughput time series and the Jain fairness
// index.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"abc/internal/sim"
)

// DelayRecorder accumulates per-packet delay statistics in fixed memory:
// a running sum for the mean and a Greenwald-Khanna sketch for
// percentiles. The zero value is ready to use. Setting Exact to true
// before the first Add switches to the historical exact mode, which
// buffers every sample and sorts on query — kept for tests that need
// bit-exact percentiles on large inputs.
type DelayRecorder struct {
	// Exact, when set before the first Add, stores every sample and
	// computes exact nearest-rank percentiles (unbounded memory).
	Exact bool

	count  int64
	sum    float64
	sketch gkSketch

	samples []float64 // exact mode only, milliseconds
	sorted  bool
}

// Add records one delay sample. The sketch is fed in both modes (it is
// cheap and fixed-memory), so flipping Exact mid-stream degrades to the
// streaming estimate instead of misbehaving.
func (d *DelayRecorder) Add(t sim.Time) { d.AddSample(t.Millis()) }

// AddSample records one raw sample in the recorder's unit — milliseconds
// for delay distributions, dimensionless for the slowdown distributions
// that reuse the same streaming machinery.
func (d *DelayRecorder) AddSample(v float64) {
	d.count++
	d.sum += v
	if d.Exact {
		d.samples = append(d.samples, v)
		d.sorted = false
	}
	d.sketch.Add(v)
}

// Merge folds another recorder's samples into this one, as if every
// sample o recorded had been Added here: counts and sums combine
// exactly, sketches merge with the mergeable-summary error bound (the
// two epsilons add). The sharded harness uses it to pool per-shard and
// per-flow recorders in a deterministic order after the run. In Exact
// mode the merged recorder stays exact only if o is Exact too;
// otherwise percentile queries fall back to the merged sketch. o is
// flushed but otherwise unchanged.
func (d *DelayRecorder) Merge(o *DelayRecorder) {
	d.count += o.count
	d.sum += o.sum
	if d.Exact && o.Exact {
		d.samples = append(d.samples, o.samples...)
		d.sorted = false
	}
	d.sketch.merge(&o.sketch)
}

// Count returns the number of samples.
func (d *DelayRecorder) Count() int { return int(d.count) }

// Mean returns the mean delay in milliseconds (0 with no samples).
func (d *DelayRecorder) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// Percentile returns the p-th percentile delay in milliseconds with
// nearest-rank semantics; p in [0,100]. In the default streaming mode the
// returned rank is within the sketch's epsilon of the true rank (exact
// for small sample counts); in Exact mode it is the true order statistic.
func (d *DelayRecorder) Percentile(p float64) float64 {
	if d.count == 0 {
		return 0
	}
	// Exact mode only has the full sample set if Exact was set before
	// the first Add; otherwise fall back to the (complete) sketch.
	if d.Exact && int64(len(d.samples)) == d.count {
		if !d.sorted {
			sort.Float64s(d.samples)
			d.sorted = true
		}
		if p <= 0 {
			return d.samples[0]
		}
		if p >= 100 {
			return d.samples[len(d.samples)-1]
		}
		rank := int(math.Ceil(p / 100 * float64(len(d.samples))))
		if rank < 1 {
			rank = 1
		}
		return d.samples[rank-1]
	}
	if p <= 0 {
		return d.sketch.Min()
	}
	if p >= 100 {
		return d.sketch.Max()
	}
	return d.sketch.Query(int64(math.Ceil(p / 100 * float64(d.count))))
}

// P95 is the 95th percentile, the paper's headline delay metric.
func (d *DelayRecorder) P95() float64 { return d.Percentile(95) }

// Timeseries records a value sampled on a fixed period, for the paper's
// throughput/queuing-delay time plots. It is a plain recorder: whoever
// owns the clock (the harness's barrier observer) calls Add.
type Timeseries struct {
	Period sim.Time
	Times  []float64 // seconds
	Values []float64
}

// Add appends the sample v taken at time now.
func (t *Timeseries) Add(now sim.Time, v float64) {
	t.Times = append(t.Times, now.Seconds())
	t.Values = append(t.Values, v)
}

// Mean returns the mean of the sampled values.
func (t *Timeseries) Mean() float64 {
	if len(t.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range t.Values {
		sum += v
	}
	return sum / float64(len(t.Values))
}

// Max returns the maximum sampled value.
func (t *Timeseries) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.Values {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// RateCounter converts byte deliveries into interval throughput in bits/s.
type RateCounter struct {
	bytes     int64
	lastBytes int64
	lastAt    sim.Time
}

// Add records n delivered bytes.
func (r *RateCounter) Add(n int) { r.bytes += int64(n) }

// TotalBytes returns all bytes recorded.
func (r *RateCounter) TotalBytes() int64 { return r.bytes }

// SampleBps returns the average rate since the previous call.
func (r *RateCounter) SampleBps(now sim.Time) float64 {
	dur := now - r.lastAt
	if dur <= 0 {
		return 0
	}
	bps := float64(r.bytes-r.lastBytes) * 8 / dur.Seconds()
	r.lastBytes = r.bytes
	r.lastAt = now
	return bps
}

// JainIndex computes Jain's fairness index over per-flow throughputs:
// (Σx)² / (n·Σx²), which is 1 for perfect fairness and 1/n at worst.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1 // all zero: degenerate but "equal"
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Utilization is delivered/capacity clamped to [0, 1+], reported as the
// paper does against trace delivery opportunities.
func Utilization(deliveredBytes, capacityBytes int64) float64 {
	if capacityBytes <= 0 {
		return 0
	}
	return float64(deliveredBytes) / float64(capacityBytes)
}

// Summary is the (throughput, delay) pair the paper's scatter plots use.
type Summary struct {
	Scheme      string
	Utilization float64
	TputMbps    float64
	MeanMs      float64
	P95Ms       float64
}

// String renders one result row; utilization is omitted when unknown
// (Wi-Fi runs report throughput only, as the paper does).
func (s Summary) String() string {
	if s.Utilization == 0 {
		return fmt.Sprintf("%-14s tput=%6.2f Mbit/s  delay mean=%7.1f ms  p95=%7.1f ms",
			s.Scheme, s.TputMbps, s.MeanMs, s.P95Ms)
	}
	return fmt.Sprintf("%-14s util=%5.1f%%  tput=%6.2f Mbit/s  delay mean=%7.1f ms  p95=%7.1f ms",
		s.Scheme, s.Utilization*100, s.TputMbps, s.MeanMs, s.P95Ms)
}
