package trace

import (
	"slices"

	"abc/internal/sim"
)

// pos is a point x on a trace's looping timeline: the period it falls in
// and how many of that period's distinct instants lie before it.
type pos struct {
	// full is the number of whole periods before x.
	full int64
	// idx is the number of instants in [full*period, x): a lower bound
	// into at for x - full*period.
	idx int
}

// count returns the number of opportunities in [0, x) for the x p stands at.
func (p pos) count(t *Trace) int64 {
	return p.full*int64(t.cum[len(t.at)]) + int64(t.cum[p.idx])
}

// next returns the first opportunity at or after the x p stands at.
func (p pos) next(t *Trace) sim.Time {
	start := sim.Time(p.full) * t.period
	if p.idx < len(t.at) {
		return start + t.at[p.idx]
	}
	return start + t.period + t.at[0]
}

// lowerBound returns the number of instants of one period before rem,
// given that at least lo of them are. The answer lies in rem's bucket of
// the index: every instant of an earlier bucket is before rem and none of
// a later one is. So it scans forward from the bucket's first instant (or
// lo, if that is further on), or, where more than cursorSteps instants
// are left in the bucket, searches them.
func (t *Trace) lowerBound(lo int, rem sim.Time) int {
	b := rem >> t.shift
	lo = max(lo, int(t.first[b]))
	hi := int(t.first[b+1])
	if hi-lo > cursorSteps {
		i, _ := slices.BinarySearch(t.at[lo:hi], rem)
		return lo + i
	}
	for lo < hi && t.at[lo] < rem {
		lo++
	}
	return lo
}

// locate puts p at x >= 0 from scratch: a division for the period, which
// an x in the first period skips, and one landing through the index.
// Every stateless Trace method is this, and it is the cursor's fallback.
func (t *Trace) locate(p *pos, x sim.Time) {
	p.full = 0
	if x >= t.period {
		p.full = int64(x / t.period)
		x %= t.period
	}
	p.idx = t.lowerBound(0, x)
}

// cursorSteps bounds a linear scan: a link's successive queries are
// rarely more than a few instants apart, and past that a binary search
// over what is left is cheaper than walking.
const cursorSteps = 8

// walk moves p forward to x >= 0 if x lies in p's period or the one after,
// at or past p's position: up to cursorSteps instants one by one, then a
// landing through the index. It reports false, with p no longer
// meaningful, when x is not ahead like that (a backwards query, a jump of
// more than a period).
func (t *Trace) walk(p *pos, x sim.Time) bool {
	rem := x - sim.Time(p.full)*t.period
	if rem >= t.period && rem < 2*t.period {
		p.full++
		p.idx = 0
		rem -= t.period
	}
	if rem < 0 || rem >= t.period || (p.idx > 0 && t.at[p.idx-1] >= rem) {
		return false
	}
	i := p.idx
	for n := 0; n < cursorSteps && i < len(t.at) && t.at[i] < rem; n++ {
		i++
	}
	if i < len(t.at) && t.at[i] < rem {
		i = t.lowerBound(i, rem)
	}
	p.idx = i
	return true
}

// seek moves p to x >= 0, walking if it can and locating afresh if not.
// Where p ends up depends on x alone, never on where it stood.
func (t *Trace) seek(p *pos, x sim.Time) {
	if !t.walk(p, x) {
		t.locate(p, x)
	}
}

// Cursor answers the same questions as its Trace, with the same answers,
// but remembers where the last query fell and advances from there. A
// caller whose clock moves forward — a link stepping from one delivery
// instant to the next, a router asking for the rate over a window that
// slides with now — pays a few comparisons per query instead of binary
// searches. The cursor is a memo of a pure function: any query order is
// legal and returns what the Trace method returns; order only decides
// how fast. Keep one cursor per stream of queries (a sliding window and a
// delivery schedule interleaved on one cursor would keep dislodging each
// other). The zero Cursor is not usable; get one from Trace.Cursor. A
// Cursor is a value with no pointers into itself, so it may be embedded
// and copied.
type Cursor struct {
	t *Trace
	// from and to stand at the two ends of the last CountIn interval;
	// Step(now) leaves to standing at now+1, on the instant it returns.
	from, to pos
}

// Cursor returns a cursor over t, positioned at time zero.
func (t *Trace) Cursor() Cursor { return Cursor{t: t} }

// Trace returns the trace the cursor reads.
func (c *Cursor) Trace() *Trace { return c.t }

// Step answers both questions a link asks at a delivery instant: k is
// CountIn(now, now+1), the opportunities at now, and next is
// NextOpportunity(now), the first instant after it. When now is the
// instant the last step returned — a link that stays busy — the cursor
// already stands on it: the step reads its count as one difference and
// moves to the instant after, with no search. Any other now seeks first.
func (c *Cursor) Step(now sim.Time) (k int64, next sim.Time) {
	t, p := c.t, &c.to
	if now < 0 {
		return 0, t.at[0]
	}
	if p.next(t) != now {
		t.seek(p, now)
		if at := p.next(t); at != now {
			return 0, at
		}
	}
	// p stands on the instant at now, possibly as the end of the period
	// before it.
	if p.idx == len(t.at) {
		p.full++
		p.idx = 0
	}
	k = int64(t.cum[p.idx+1] - t.cum[p.idx])
	p.idx++
	return k, p.next(t)
}

// countUpTo is Trace.countUpTo through p.
func (c *Cursor) countUpTo(p *pos, x sim.Time) int64 {
	if x <= 0 {
		return 0
	}
	c.t.seek(p, x)
	return p.count(c.t)
}

// CountIn is Trace.CountIn.
func (c *Cursor) CountIn(from, to sim.Time) int64 {
	if to <= from {
		return 0
	}
	return c.countUpTo(&c.to, to) - c.countUpTo(&c.from, from)
}

// NextOpportunity is Trace.NextOpportunity: the next of Step(now).
func (c *Cursor) NextOpportunity(now sim.Time) sim.Time {
	_, next := c.Step(now)
	return next
}

// CapacityBps is Trace.CapacityBps.
func (c *Cursor) CapacityBps(now, window sim.Time) float64 {
	from, ok := trailingWindow(now, window)
	if !ok {
		return 0
	}
	return rateBps(c.CountIn(from, now), now-from)
}

// FutureCapacityBps is Trace.FutureCapacityBps.
func (c *Cursor) FutureCapacityBps(now, window sim.Time) float64 {
	window = defaultWindow(window)
	return rateBps(c.CountIn(now, now+window), window)
}
