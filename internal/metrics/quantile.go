// Log-linear histogram, the engine behind DelayRecorder's fixed-memory
// percentiles: the relative-error, mergeable design of DDSketch (Masson,
// Rim & Lee, VLDB 2019) and HdrHistogram, keyed on the sample's own
// IEEE-754 bits so that recording a sample is one array increment.
//
// Bucket layout. A positive float64 is sign(1) | exponent(11) |
// mantissa(52). A sample's bucket key is its bits shifted right by 43:
// the exponent (its octave, [2^e, 2^(e+1))) followed by the top
// subBits = 9 mantissa bits (one of 512 equal slices of that octave).
// Keys order as the values do, a bucket [lo, hi) is lo·2⁻⁹ wide, and an
// octave's 512 counters are allocated the first time a sample lands in
// it, so memory follows the dynamic range the samples cover (4 KiB an
// octave, ten octaves between 1 ms and 1 s), not their number. Zero has
// a bucket of its own; min and max are tracked exactly.
//
// Error bound. quantile(r) walks the counters to the bucket that holds
// the rank-r order statistic — there is no rank error — and returns
// that bucket's midpoint clamped to [min, max], which is within 2⁻¹⁰
// (0.098 %) of the order statistic itself. A bound on the value, not on
// the rank, is the one delay reporting wants: the paper's tables print
// a p95 to three or four digits, and where the distribution is steep (a
// bufferbloat tail) a rank that is off by 0.05 % of the samples can move
// the value by a per cent, while a value bound holds whatever the shape.
//
// Small samples. The first rawLimit samples are kept as they are and
// answered by sorting them, so handfuls of samples, per-class FCT
// recorders and unit tests get exact nearest-rank percentiles and never
// pay for a counter block; the 1001st sample moves them into buckets.
//
// A histogram is a pure function of the multiset of samples it has
// seen: order, batching, merging and querying change neither its state
// nor any later answer.
//
// Domain. Recorders hold delays, completion times and slowdowns, all
// ≥ 0. A negative or NaN sample is recorded as 0. +Inf and values above
// 2⁶⁰ are ordinary samples in high octaves (a percentile that lands on
// +Inf returns +Inf). Subnormals share the exponent-0 octave, where the
// bound is absolute (below 2⁻¹⁰³¹) rather than relative.
package metrics

import (
	"math"
	"sort"
)

const (
	// rawLimit is how many samples are kept raw before bucketing.
	rawLimit = 1000
	// subBits is the number of mantissa bits in a bucket key: 512
	// buckets an octave.
	subBits  = 9
	keyShift = 52 - subBits
)

// octave holds the counters of one power-of-two range. uint64 cannot
// wrap: a run would have to record 2⁶⁴ samples.
type octave [1 << subBits]uint64

// histogram is the percentile engine. The zero value is ready to use.
type histogram struct {
	n        uint64
	min, max float64
	// raw holds the samples while n <= rawLimit and is nil afterwards.
	raw []float64
	// zero counts the samples equal to 0; octs[i] counts those with
	// float64 exponent base+i, nil until one arrives.
	zero uint64
	base int
	octs []*octave
}

// add records one sample.
func (h *histogram) add(v float64) {
	if !(v > 0) {
		v = 0 // negative or NaN: outside the domain
	}
	h.widen(v, v)
	h.n++
	if h.n <= rawLimit {
		h.raw = append(h.raw, v)
		return
	}
	if h.raw != nil {
		h.spill() // the 1001st sample
	}
	*h.counter(v)++
}

// widen stretches [min, max] to cover [lo, hi], before n counts them.
func (h *histogram) widen(lo, hi float64) {
	if h.n == 0 || lo < h.min {
		h.min = lo
	}
	if h.n == 0 || hi > h.max {
		h.max = hi
	}
}

// spill moves the raw samples into buckets, once.
func (h *histogram) spill() {
	for _, v := range h.raw {
		*h.counter(v)++
	}
	h.raw = nil
}

// counter returns the counter of v's bucket.
func (h *histogram) counter(v float64) *uint64 {
	if v == 0 {
		return &h.zero
	}
	key := math.Float64bits(v) >> keyShift
	e, sub := int(key>>subBits), key&(1<<subBits-1)
	if i := uint(e - h.base); i < uint(len(h.octs)) && h.octs[i] != nil {
		return &h.octs[i][sub]
	}
	return &h.newOctave(e)[sub]
}

// bucketMid returns the midpoint of sub-bucket sub of the octave with
// float64 exponent e.
func bucketMid(e, sub int) float64 {
	return math.Float64frombits((uint64(e)<<subBits|uint64(sub))<<keyShift | 1<<(keyShift-1))
}

// newOctave widens octs to cover exponent e and allocates its counters,
// on the first sample that lands there.
func (h *histogram) newOctave(e int) *octave {
	switch {
	case len(h.octs) == 0:
		h.base, h.octs = e, make([]*octave, 1)
	case e < h.base:
		h.octs = append(make([]*octave, h.base-e, h.base-e+len(h.octs)), h.octs...)
		h.base = e
	case e >= h.base+len(h.octs):
		h.octs = append(h.octs, make([]*octave, e-h.base-len(h.octs)+1)...)
	}
	o := new(octave)
	h.octs[e-h.base] = o
	return o
}

// merge adds every sample o holds to h, leaving o as it was: raw
// samples are re-added, counters are summed bucket by bucket.
func (h *histogram) merge(o *histogram) {
	if o.n <= rawLimit {
		for _, v := range o.raw {
			h.add(v)
		}
		return
	}
	h.spill()
	h.widen(o.min, o.max)
	h.n += o.n
	h.zero += o.zero
	for i, src := range o.octs {
		if src == nil {
			continue
		}
		for j, c := range src {
			if c != 0 {
				*h.counter(bucketMid(o.base+i, j)) += c
			}
		}
	}
}

// quantile returns the rank-r order statistic (1-based, r in [1, n]):
// exactly while the samples are raw, otherwise the midpoint of the
// bucket that holds it, clamped to [min, max]. It reads only; sorting
// raw in place keeps the multiset.
func (h *histogram) quantile(r uint64) float64 {
	if h.n <= rawLimit {
		sort.Float64s(h.raw)
		return h.raw[r-1]
	}
	cum := h.zero
	if r <= cum {
		return 0
	}
	for i, o := range h.octs {
		if o == nil {
			continue
		}
		for j, c := range o {
			if cum += c; cum >= r {
				v := bucketMid(h.base+i, j)
				// The +Inf bucket's "midpoint" is a NaN; the
				// negated comparison sends it to max.
				if !(v <= h.max) {
					v = h.max
				}
				if v < h.min {
					v = h.min
				}
				return v
			}
		}
	}
	return h.max
}
