// Open-loop workload primitives: arrival processes and flow-size
// distributions, as values (their struct tags are the scenario-file
// keys). Both draw exclusively from the RNG they are handed (the
// simulation's), so a seeded run replays the exact same workload.
package app

import (
	"math"
	"math/rand"

	"abc/internal/sim"
)

// Arrival is an open-loop arrival process as a value. Open starts one run
// of it: whatever cursor the process keeps lives in the returned Gaps, so
// one Arrival drives any number of runs alike.
type Arrival interface {
	Open() (Gaps, error)
}

// Gaps draws one run's inter-arrival gaps.
type Gaps interface {
	// Next draws the gap until the next arrival.
	Next(rng *rand.Rand) sim.Time
}

// Poisson is a Poisson arrival process: exponential inter-arrival times
// at PerSec flows per second.
type Poisson struct {
	PerSec float64 `spec:"per_s"`
}

// Open implements Arrival: the process keeps no state.
func (p Poisson) Open() (Gaps, error) { return p, nil }

// Next implements Arrival.
func (p Poisson) Next(rng *rand.Rand) sim.Time {
	if p.PerSec <= 0 {
		return sim.Time(math.MaxInt64)
	}
	return sim.FromSeconds(rng.ExpFloat64() / p.PerSec)
}

// Deterministic spaces arrivals exactly Gap apart (constant-rate
// benchmarking workloads).
type Deterministic struct {
	Gap sim.Time `spec:"gap_ms"`
}

// Open implements Arrival: the process keeps no state.
func (d Deterministic) Open() (Gaps, error) { return d, nil }

// Next implements Arrival.
func (d Deterministic) Next(*rand.Rand) sim.Time {
	if d.Gap <= 0 {
		return sim.Time(math.MaxInt64)
	}
	return d.Gap
}

// SizeDist draws per-flow transfer sizes in bytes.
type SizeDist interface {
	Draw(rng *rand.Rand) int
}

// FixedSize gives every flow the same size (RPC-style workloads).
type FixedSize struct {
	Bytes int `spec:"kb"`
}

// Draw implements SizeDist.
func (f FixedSize) Draw(*rand.Rand) int { return f.Bytes }

// BoundedPareto is the classic heavy-tailed web-flow size model: a
// Pareto(Alpha) tail truncated to [Min, Max] bytes by inverse-CDF
// sampling, so most flows are mice and a few are elephants.
// A zero Alpha takes the web-workload default, 1.2.
type BoundedPareto struct {
	Min   int     `spec:"min_kb"`
	Max   int     `spec:"max_kb"`
	Alpha float64 `spec:"alpha"`
}

// Draw implements SizeDist.
func (b BoundedPareto) Draw(rng *rand.Rand) int {
	lo, hi := float64(b.Min), float64(b.Max)
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		return int(lo)
	}
	a := b.Alpha
	if a <= 0 {
		a = 1.2
	}
	// Inverse CDF of the bounded Pareto on [lo, hi].
	u := rng.Float64()
	la, ha := math.Pow(lo, a), math.Pow(hi, a)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/a)
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return int(x)
}

// Choice draws from an explicit empirical distribution: Sizes[i] is
// picked with probability proportional to Weights[i] (equal weights when
// Weights is empty). It encodes measured workload CDFs as data.
type Choice struct {
	Sizes   []int     `spec:"sizes_kb"`
	Weights []float64 `spec:"weights"`
}

// Draw implements SizeDist.
func (c Choice) Draw(rng *rand.Rand) int {
	if len(c.Sizes) == 0 {
		return 0
	}
	if len(c.Weights) != len(c.Sizes) {
		return c.Sizes[rng.Intn(len(c.Sizes))]
	}
	var total float64
	for _, w := range c.Weights {
		total += w
	}
	if total <= 0 {
		return c.Sizes[rng.Intn(len(c.Sizes))]
	}
	u := rng.Float64() * total
	for i, w := range c.Weights {
		u -= w
		if u < 0 {
			return c.Sizes[i]
		}
	}
	return c.Sizes[len(c.Sizes)-1]
}
