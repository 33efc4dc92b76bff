// Package trace models time-varying link capacity as Mahimahi-style packet
// delivery traces, and generates the synthetic cellular traces used in
// place of the paper's recorded Verizon/AT&T/T-Mobile captures.
//
// A trace is a sorted multiset of millisecond timestamps. Each entry is one
// delivery opportunity: the link may transmit up to one MTU-sized (1500 B)
// packet at that instant. The trace loops forever with period equal to its
// last timestamp (rounded up to a millisecond). These are exactly the
// semantics of Mahimahi's LinkShell, which the paper uses for all cellular
// experiments.
//
// A Trace holds one period as its distinct instants and their prefix
// counts, so the opportunities at an instant are one difference however
// many share its timestamp, and a bucket index over the instants: the
// period is cut into buckets whose width is the smallest power of two at
// or above the mean gap between instants, and the index holds, per
// bucket, how many instants lie before it. That is at most one int32 per
// instant, plus one (38 KB for a 20 s synthetic cellular trace), and a
// query lands in its bucket with a shift and scans forward; only a bucket
// holding more than eight instants (a burst of instants nanoseconds
// apart) is searched, and then only within itself. A Trace is immutable
// and its methods are stateless: any goroutine may ask about any
// instant. A Cursor (cursor.go) answers the same questions from the same
// representation for one caller whose clock moves forward, advancing
// from where the last query landed instead of landing afresh;
// Cursor.Step is a link's whole question at a delivery instant (how many
// opportunities are here, when is the next). A cursor returns exactly
// what the Trace method returns, in any query order.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"abc/internal/packet"
	"abc/internal/sim"
)

// Trace is an immutable delivery-opportunity schedule that loops forever.
type Trace struct {
	// Name identifies the trace in reports.
	Name string
	// at holds the distinct opportunity instants within one period,
	// ascending, and cum their prefix counts: cum[j] opportunities fall
	// before at[j], cum[j+1]-cum[j] at it, and cum[len(at)] in the whole
	// period. A query lands on an instant and reads one difference, however
	// many opportunities share the timestamp.
	at  []sim.Time
	cum []int32
	// first indexes at by time: the period is cut into buckets of width
	// 1<<shift, and first[b] instants lie before b<<shift, the last entry
	// being len(at). The width is the smallest power of two at or above
	// the mean gap between instants, so there are at most len(at)
	// buckets and a bucket holds about one instant.
	first []int32
	shift uint
	// period is the loop length; always >= the last opportunity and > 0.
	period sim.Time
	// gen is how the trace was made, when one of the named or synthetic
	// constructors made it.
	gen *Generator
}

// New builds a trace from opportunity times (need not be sorted) and a loop
// period. Opportunities at or after the period are rejected.
func New(name string, ops []sim.Time, period sim.Time) (*Trace, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("trace %q: no delivery opportunities", name)
	}
	if period <= 0 {
		return nil, fmt.Errorf("trace %q: non-positive period %v", name, period)
	}
	if len(ops) > math.MaxInt32 {
		return nil, fmt.Errorf("trace %q: more than %d opportunities a period", name, math.MaxInt32)
	}
	sorted := slices.Clone(ops)
	slices.Sort(sorted)
	if sorted[0] < 0 {
		return nil, fmt.Errorf("trace %q: negative opportunity time", name)
	}
	if last := sorted[len(sorted)-1]; last >= period {
		return nil, fmt.Errorf("trace %q: opportunity %v at/after period %v", name, last, period)
	}
	// Fold the sorted times into distinct instants in place: the j-th
	// instant is written no later than it is read.
	m := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			m++
		}
	}
	t := &Trace{Name: name, at: sorted[:0], cum: make([]int32, 0, m+1), period: period}
	for i, op := range sorted {
		if len(t.at) == 0 || op != t.at[len(t.at)-1] {
			t.at = append(t.at, op)
			t.cum = append(t.cum, int32(i))
		}
	}
	t.cum = append(t.cum, int32(len(sorted)))
	t.index()
	return t, nil
}

// index builds first and shift from at and period.
func (t *Trace) index() {
	gap := (t.period-1)/sim.Time(len(t.at)) + 1 // the mean gap, rounded up
	t.shift = uint(bits.Len64(uint64(gap - 1)))
	t.first = make([]int32, (t.period-1)>>t.shift+2)
	b := 0
	for j, at := range t.at {
		for ; b <= int(at>>t.shift); b++ {
			t.first[b] = int32(j)
		}
	}
	for ; b < len(t.first); b++ {
		t.first[b] = int32(len(t.at))
	}
}

// Parse reads the Mahimahi trace format: one integer millisecond timestamp
// per line, non-decreasing, possibly repeated. The loop period is the last
// timestamp (a trailing entry at N ms yields an N ms period, matching
// Mahimahi's convention).
func Parse(name string, r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	var ops []sim.Time
	var last int64 = -1
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace %q line %d: %v", name, line, err)
		}
		if ms < last {
			return nil, fmt.Errorf("trace %q line %d: timestamps must be non-decreasing", name, line)
		}
		last = ms
		ops = append(ops, sim.Time(ms)*sim.Millisecond)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("trace %q: empty", name)
	}
	period := ops[len(ops)-1]
	if period == 0 {
		period = sim.Millisecond
	}
	// Mahimahi treats the final timestamp as the wrap point: an
	// opportunity exactly at the period belongs to the next cycle.
	body := ops
	for len(body) > 0 && body[len(body)-1] >= period {
		body = body[:len(body)-1]
	}
	if len(body) == 0 {
		// Degenerate single-timestamp trace: one opportunity per period.
		body = []sim.Time{0}
	}
	return New(name, body, period)
}

// WriteTo emits the trace in Mahimahi format (millisecond resolution).
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for j, op := range t.at {
		for k := t.cum[j]; k < t.cum[j+1]; k++ {
			c, err := fmt.Fprintf(bw, "%d\n", int64(op/sim.Millisecond))
			n += int64(c)
			if err != nil {
				return n, err
			}
		}
	}
	c, err := fmt.Fprintf(bw, "%d\n", int64(t.period/sim.Millisecond))
	n += int64(c)
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// Period returns the loop period.
func (t *Trace) Period() sim.Time { return t.period }

// Opportunities returns the number of delivery opportunities per period.
func (t *Trace) Opportunities() int { return int(t.cum[len(t.at)]) }

// countUpTo returns the number of opportunities in [0, x); 0 for x <= 0.
func (t *Trace) countUpTo(x sim.Time) int64 {
	if x <= 0 {
		return 0
	}
	var p pos
	t.locate(&p, x)
	return p.count(t)
}

// CountIn returns the number of delivery opportunities in the half-open
// interval [from, to).
func (t *Trace) CountIn(from, to sim.Time) int64 {
	if to <= from {
		return 0
	}
	return t.countUpTo(to) - t.countUpTo(from)
}

// NextOpportunity returns the first opportunity time strictly after now:
// with integer timestamps, the first one at or after now+1.
func (t *Trace) NextOpportunity(now sim.Time) sim.Time {
	if now < 0 {
		now = -1
	}
	var p pos
	t.locate(&p, now+1)
	return p.next(t)
}

// CapacityBps returns the average link capacity over the window ending at
// now, in bits per second, assuming each opportunity carries one MTU.
func (t *Trace) CapacityBps(now, window sim.Time) float64 {
	from, ok := trailingWindow(now, window)
	if !ok {
		return 0
	}
	return rateBps(t.CountIn(from, now), now-from)
}

// FutureCapacityBps returns the average capacity over [now, now+window):
// the oracle used by PK-ABC (§6.6).
func (t *Trace) FutureCapacityBps(now, window sim.Time) float64 {
	window = defaultWindow(window)
	return rateBps(t.CountIn(now, now+window), window)
}

// defaultWindow replaces a non-positive averaging window by 100 ms.
func defaultWindow(window sim.Time) sim.Time {
	if window <= 0 {
		return 100 * sim.Millisecond
	}
	return window
}

// trailingWindow returns the start of the averaging window that ends at
// now, clipped at time zero; ok is false when nothing of it is left.
func trailingWindow(now, window sim.Time) (from sim.Time, ok bool) {
	from = now - defaultWindow(window)
	if from < 0 {
		from = 0
	}
	return from, now > from
}

// rateBps converts n opportunities over span into bits per second, each
// opportunity carrying one MTU.
func rateBps(n int64, span sim.Time) float64 {
	return float64(n) * packet.MTU * 8 / span.Seconds()
}

// AvgRateBps returns the long-run average capacity of the trace.
func (t *Trace) AvgRateBps() float64 {
	return float64(t.Opportunities()) * packet.MTU * 8 / t.period.Seconds()
}

// --- Constructors for analytically shaped traces ---

// Constant returns a fixed-rate trace of the given bits/sec. The period is
// chosen to give millisecond-accurate spacing.
func Constant(name string, bps float64) *Trace {
	if bps <= 0 {
		panic("trace: Constant requires positive rate")
	}
	// Opportunities are evenly spaced at MTU*8/bps, as many as fit in
	// about a second; at more than 2 s apart the period is one gap.
	gap := float64(packet.MTU*8) / bps // seconds per opportunity
	n := max(1, int(math.Round(1.0/gap)))
	ops := make([]sim.Time, n)
	for i := range ops {
		ops[i] = sim.FromSeconds(float64(i) * gap)
	}
	period := sim.FromSeconds(float64(n) * gap)
	tr, err := New(name, ops, period)
	if err != nil {
		panic(err)
	}
	return tr
}

// FromRateFunc samples a rate function (bits/sec as a function of time)
// into delivery opportunities over [0, total) and loops it.
func FromRateFunc(name string, total sim.Time, rate func(sim.Time) float64) *Trace {
	if total <= 0 {
		panic("trace: FromRateFunc requires positive duration")
	}
	const tick = sim.Millisecond
	tr := &Trace{Name: name, period: total}
	var n int32
	var credit float64 // accumulated bytes
	for t := sim.Time(0); t < total; t += tick {
		r := rate(t)
		if r < 0 {
			r = 0
		}
		credit += r * tick.Seconds() / 8
		k := int32(0)
		for credit >= packet.MTU {
			credit -= packet.MTU
			k++
		}
		if k > 0 {
			tr.at = append(tr.at, t)
			tr.cum = append(tr.cum, n)
			n += k
		}
	}
	if n == 0 {
		tr.at, tr.cum, n = []sim.Time{0}, []int32{0}, 1
	}
	tr.cum = append(tr.cum, n)
	tr.index()
	return tr
}

// SquareWave alternates between lowBps and highBps every halfPeriod,
// starting high. Used for the Fig. 17 12↔24 Mbit/s experiment.
func SquareWave(name string, lowBps, highBps float64, halfPeriod sim.Time) *Trace {
	tr := FromRateFunc(name, 2*halfPeriod, func(t sim.Time) float64 {
		if t < halfPeriod {
			return highBps
		}
		return lowBps
	})
	tr.gen = &Generator{SquareLow: lowBps, SquareHigh: highBps, SquareHalf: halfPeriod}
	return tr
}

// Steps holds each rate for stepDur in sequence, then loops. Used for the
// Fig. 6 wired/wireless bottleneck-switching experiment.
func Steps(name string, ratesBps []float64, stepDur sim.Time) *Trace {
	if len(ratesBps) == 0 {
		panic("trace: Steps requires at least one rate")
	}
	total := sim.Time(len(ratesBps)) * stepDur
	tr := FromRateFunc(name, total, func(t sim.Time) float64 {
		return ratesBps[int(t/stepDur)%len(ratesBps)]
	})
	tr.gen = &Generator{Steps: slices.Clone(ratesBps), Step: stepDur}
	return tr
}

// Generator is how a trace is made, as data: a NamedCellular trace by
// name, or the shape of a Steps or SquareWave trace. The struct tags are
// its scenario-file keys.
type Generator struct {
	Cellular string `spec:"trace"`
	// Steps (bits/sec) are held for Step each.
	Steps []float64 `spec:"steps_mbps"`
	Step  sim.Time  `spec:"step_ms"`
	// SquareHigh and SquareLow (bits/sec) alternate every SquareHalf.
	SquareLow  float64  `spec:"square_low_mbps"`
	SquareHigh float64  `spec:"square_high_mbps"`
	SquareHalf sim.Time `spec:"square_half_ms"`
}

// Generator returns how the trace was made; ok is false for a trace that
// no named or synthetic constructor made (parsed, rotated, Constant).
func (t *Trace) Generator() (g Generator, ok bool) {
	if t.gen == nil {
		return Generator{}, false
	}
	return *t.gen, true
}

// Trace makes the trace g describes. Exactly one shape must be set, and a
// synthetic one is bounded: it materialises one entry per delivery
// opportunity on a 1 ms grid, so a period that is 0 ns on the clock or a
// stray exponent is an error rather than a gigabyte.
func (g Generator) Trace() (*Trace, error) {
	steps, square := len(g.Steps) > 0, g.SquareLow != 0 || g.SquareHigh != 0 || g.SquareHalf != 0
	switch {
	case (g.Cellular != "" && steps) || (g.Cellular != "" && square) || (steps && square):
		return nil, fmt.Errorf("trace: a trace has one generator: a name, steps or a square wave")
	case g.Cellular != "":
		return NamedCellular(g.Cellular)
	case steps:
		if err := synthetic("step_ms", g.Step, g.Steps...); err != nil {
			return nil, err
		}
		return Steps("steps", g.Steps, g.Step), nil
	case square:
		if g.SquareHigh <= 0 {
			return nil, fmt.Errorf("trace: a square wave needs square_high_mbps > 0")
		}
		if err := synthetic("square_half_ms", g.SquareHalf, g.SquareLow, g.SquareHigh); err != nil {
			return nil, err
		}
		return SquareWave("square", g.SquareLow, g.SquareHigh, g.SquareHalf), nil
	}
	return nil, fmt.Errorf("trace: a generator needs a name, steps_mbps or a square wave")
}

// synthetic bounds a synthetic trace of period per rate: the period is
// tested as the clock sees it, and one loop's length and size are capped.
func synthetic(key string, period sim.Time, bps ...float64) error {
	const max = 1 << 22 // ms and packets a loop: 70 minutes at 14 Mbit/s
	n := sim.Time(len(bps))
	if period <= 0 || period > max*sim.Millisecond/n || slices.Max(bps)*(n*period).Seconds() > max*packet.MTU*8 {
		return fmt.Errorf("trace: %s must be at least 1 ns, and one loop of the trace at most %d ms and %d packets", key, max, max)
	}
	return nil
}

// --- Synthetic cellular traces ---

// CellParams shapes a synthetic cellular trace.
type CellParams struct {
	// Seed makes the trace reproducible.
	Seed int64
	// Duration is the loop length.
	Duration sim.Time
	// MeanMbps is the long-run average rate.
	MeanMbps float64
	// Sigma is the per-step standard deviation of the log-rate random
	// walk. Larger values give the violent swings of LTE links.
	Sigma float64
	// MinMbps / MaxMbps clamp the walk.
	MinMbps, MaxMbps float64
	// OutageProb is the per-100ms probability of entering an outage.
	OutageProb float64
}

// withDefaults fills in what p leaves at zero or below: a 60 s loop,
// 10 Mbit/s, σ 0.18, and a walk clamped to 0.4 Mbit/s and four times the
// mean.
func (p CellParams) withDefaults() CellParams {
	if p.Duration <= 0 {
		p.Duration = 60 * sim.Second
	}
	if p.MeanMbps <= 0 {
		p.MeanMbps = 10
	}
	if p.Sigma <= 0 {
		p.Sigma = 0.18
	}
	if p.MinMbps <= 0 {
		p.MinMbps = 0.4
	}
	if p.MaxMbps <= 0 {
		p.MaxMbps = 4 * p.MeanMbps
	}
	return p
}

// Check reports an error when the trace Cellular makes from p would break
// the bound Generator.Trace holds synthetic traces to: one loop of at
// most 2^22 ms, and of at most 2^22 packets at the walk's highest rate.
func (p CellParams) Check() error {
	p = p.withDefaults()
	return synthetic("a cellular trace's duration", p.Duration, p.MaxMbps*1e6)
}

// outageMs is the mean duration of a synthetic cellular outage in
// milliseconds; each lasts a uniform 0.5–1.5 times it.
const outageMs = 250.0

// Cellular generates a synthetic cellular trace: a mean-reverting random
// walk in log-rate space with occasional outages (outageMs on average),
// producing the 4x-within-a-second swings the paper describes (§2), at
// millisecond granularity.
func Cellular(name string, p CellParams) *Trace {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	logMean := math.Log(p.MeanMbps)
	logRate := logMean
	outageLeft := 0.0 // ms of outage remaining
	// The walk steps every 100 ms: LTE scheduling-grant granularity.
	// With σ ≈ 0.2–0.3 per step the rate typically swings 2–4x within a
	// second, matching the variability the paper describes (§2). A trace
	// shorter than a step holds the walk's first rate.
	const stepMs = 100.0
	steps := max(1, int(p.Duration.Millis()/stepMs))
	rates := make([]float64, steps)
	for i := range rates {
		if outageLeft > 0 {
			outageLeft -= stepMs
			rates[i] = 0
			continue
		}
		// Mean-reverting (Ornstein-Uhlenbeck-like) walk in log space.
		logRate += 0.1*(logMean-logRate) + p.Sigma*rng.NormFloat64()
		lo, hi := math.Log(p.MinMbps), math.Log(p.MaxMbps)
		if logRate < lo {
			logRate = lo
		}
		if logRate > hi {
			logRate = hi
		}
		rates[i] = math.Exp(logRate)
		if rng.Float64() < p.OutageProb*stepMs/100.0 {
			outageLeft = outageMs * (0.5 + rng.Float64())
		}
	}
	// Linear interpolation between steps keeps capacity continuous, as
	// real schedulers ramp rather than jump.
	return FromRateFunc(name, p.Duration, func(t sim.Time) float64 {
		pos := t.Millis() / stepMs
		i := int(pos)
		if i >= len(rates)-1 {
			return rates[len(rates)-1] * 1e6
		}
		frac := pos - float64(i)
		return (rates[i]*(1-frac) + rates[i+1]*frac) * 1e6
	})
}

// CellularNames lists the eight synthetic traces standing in for the
// paper's recorded captures (Fig. 9).
var CellularNames = []string{
	"Verizon1", "Verizon2", "Verizon3", "Verizon4",
	"TMobile1", "TMobile2", "ATT1", "ATT2",
}

// NamedCellular returns one of the eight standard synthetic traces by
// name. Parameters differ per carrier family to span the range of mean
// rates and variability the paper's trace set covers.
func NamedCellular(name string) (*Trace, error) {
	params := map[string]CellParams{
		"Verizon1": {Seed: 11, MeanMbps: 9, Sigma: 0.22, OutageProb: 0.015},
		"Verizon2": {Seed: 12, MeanMbps: 6, Sigma: 0.26, OutageProb: 0.03},
		"Verizon3": {Seed: 13, MeanMbps: 14, Sigma: 0.18, OutageProb: 0.01},
		"Verizon4": {Seed: 14, MeanMbps: 4, Sigma: 0.3, OutageProb: 0.04},
		"TMobile1": {Seed: 21, MeanMbps: 11, Sigma: 0.2, OutageProb: 0.02},
		"TMobile2": {Seed: 22, MeanMbps: 7, Sigma: 0.24, OutageProb: 0.025},
		"ATT1":     {Seed: 31, MeanMbps: 12, Sigma: 0.16, OutageProb: 0.012},
		"ATT2":     {Seed: 32, MeanMbps: 5, Sigma: 0.28, OutageProb: 0.035},
	}
	p, ok := params[name]
	if !ok {
		return nil, fmt.Errorf("trace: unknown cellular trace %q", name)
	}
	p.Duration = 60 * sim.Second
	tr := Cellular(name, p)
	tr.gen = &Generator{Cellular: name}
	return tr, nil
}

// MustNamedCellular is NamedCellular panicking on error.
func MustNamedCellular(name string) *Trace {
	t, err := NamedCellular(name)
	if err != nil {
		panic(err)
	}
	return t
}
