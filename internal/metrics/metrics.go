// Package metrics collects the measurements the paper reports: per-packet
// delay distributions (mean and percentiles), link utilization against
// delivery opportunities, throughput time series and the Jain fairness
// index.
package metrics

import (
	"fmt"
	"math"

	"abc/internal/sim"
)

// DelayRecorder accumulates per-packet delay statistics in fixed memory:
// a running sum for the mean and a log-linear histogram (quantile.go)
// for percentiles. The zero value is ready to use. Count, the extremes
// and every percentile are a pure function of the multiset of samples
// recorded, whatever the order, batching, merging or querying; only
// Mean's float sum rounds differently in a different order.
//
// A pooled recorder (exp.Run's) is read-only: in a one-flow run it is
// the flow's own recorder, so a sample added to it would count twice.
type DelayRecorder struct {
	sum  float64
	hist histogram
}

// Add records one delay sample.
func (d *DelayRecorder) Add(t sim.Time) { d.AddSample(t.Millis()) }

// AddSample records one raw sample in the recorder's unit — milliseconds
// for delay distributions, dimensionless for the slowdown distributions
// that reuse the same streaming machinery.
func (d *DelayRecorder) AddSample(v float64) {
	d.sum += v
	d.hist.add(v)
}

// Merge folds another recorder's samples into this one, as if every
// sample o recorded had been Added here: exactly so for Count and every
// percentile (histogram counters add), to float rounding for Mean. The
// harness uses it to pool the per-flow recorders after a run; a one-flow
// run's pool is the flow's own recorder. o is unchanged.
func (d *DelayRecorder) Merge(o *DelayRecorder) {
	d.sum += o.sum
	d.hist.merge(&o.hist)
}

// Count returns the number of samples.
func (d *DelayRecorder) Count() int { return int(d.hist.n) }

// Mean returns the mean delay in milliseconds (0 with no samples).
func (d *DelayRecorder) Mean() float64 {
	if d.hist.n == 0 {
		return 0
	}
	return d.sum / float64(d.hist.n)
}

// Percentile returns the p-th percentile delay in milliseconds with
// nearest-rank semantics; p in [0,100]. It is the exact order statistic
// for up to 1000 samples and at p = 0 and 100, and within 2⁻¹⁰ (0.098 %)
// of it otherwise. Asking changes no later answer.
func (d *DelayRecorder) Percentile(p float64) float64 {
	n := d.hist.n
	switch {
	case n == 0:
		return 0
	case p <= 0:
		return d.hist.min
	case p >= 100:
		return d.hist.max
	}
	// The clamp is for a p that underflows to rank 0 or is NaN.
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	return d.hist.quantile(min(max(rank, 1), n))
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
// A delivery is credited to the interval that holds its instant, which
// may lie ahead of the clock when it is recorded (a receiver that takes
// a packet ahead of its arrival, netem.Wire.Carry).
type RateCounter struct {
	bytes  int64
	lastAt sim.Time
	// ahead holds the deliveries not yet credited to an interval, in
	// the order recorded; its storage is reused from sample to sample.
	ahead []delivery
}

// delivery is n bytes delivered at instant at.
type delivery struct {
	at sim.Time
	n  int64
}

// Add records n bytes delivered at instant at.
func (r *RateCounter) Add(at sim.Time, n int) {
	r.bytes += int64(n)
	r.ahead = append(r.ahead, delivery{at, int64(n)})
}

// TotalBytes returns all bytes recorded.
func (r *RateCounter) TotalBytes() int64 { return r.bytes }

// SampleBps returns the average rate since the previous call over the
// deliveries at instants before now; those at or after it count towards
// the next call.
func (r *RateCounter) SampleBps(now sim.Time) float64 {
	dur := now - r.lastAt
	if dur <= 0 {
		return 0
	}
	var n int64
	later := r.ahead[:0]
	for _, d := range r.ahead {
		if d.at < now {
			n += d.n
		} else {
			later = append(later, d)
		}
	}
	r.ahead = later
	r.lastAt = now
	return float64(n) * 8 / dur.Seconds()
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
