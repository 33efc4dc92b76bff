package trace

import (
	"math/rand"
	"testing"

	"abc/internal/sim"
)

// bruteCount counts the opportunities in [0, x) one trace entry at a
// time: no period split, no search, nothing shared with locate or seek.
func bruteCount(t *Trace, x sim.Time) int64 {
	var n int64
	for _, op := range t.ops {
		if x > op {
			n += int64((x-op-1)/t.period) + 1
		}
	}
	return n
}

// bruteNext returns the first opportunity strictly after now the same way.
func bruteNext(t *Trace, now sim.Time) sim.Time {
	best := sim.Time(-1)
	for _, op := range t.ops {
		at := op
		if now >= op {
			at = op + ((now-op)/t.period+1)*t.period
		}
		if best < 0 || at < best {
			best = at
		}
	}
	return best
}

// randomTrace draws a trace of the kinds the simulator meets: Mahimahi
// files (millisecond timestamps, repeated when the rate is high), bench's
// rotated traces (every timestamp off the millisecond grid by the same
// shift), a single opportunity per period, and opportunities on both
// edges of the period.
func randomTrace(rng *rand.Rand) *Trace {
	period := sim.Time(1+rng.Intn(200)) * sim.Millisecond
	if rng.Intn(2) == 0 {
		period += sim.Time(rng.Intn(int(sim.Millisecond)))
	}
	n := 1
	if rng.Intn(5) > 0 {
		n = 1 + rng.Intn(80)
	}
	shift := sim.Time(0)
	if rng.Intn(2) == 0 {
		shift = sim.Time(rng.Int63n(int64(period)))
	}
	ops := make([]sim.Time, 0, n+2)
	for len(ops) < n {
		op := (sim.Time(rng.Int63n(int64(period)))/sim.Millisecond*sim.Millisecond + shift) % period
		ops = append(ops, op)
		for len(ops) < n && rng.Intn(3) == 0 {
			ops = append(ops, op) // several opportunities on one timestamp
		}
	}
	if rng.Intn(3) == 0 {
		ops = append(ops, 0)
	}
	if rng.Intn(3) == 0 {
		ops = append(ops, period-1)
	}
	tr, err := New("random", ops, period)
	if err != nil {
		panic(err)
	}
	return tr
}

// TestCursorMatchesTrace asks one cursor and its trace the same random
// questions, mostly with a clock that creeps forward as a link's does,
// but also after idling for many periods, stepping back, at now = -1 and
// over empty intervals; every answer must be the stateless method's, and
// CountIn and NextOpportunity must also agree with a brute-force count.
func TestCursorMatchesTrace(t *testing.T) {
	var walks, relocations int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		c := tr.Cursor()
		windows := []sim.Time{0, -sim.Millisecond, 1, 80 * sim.Millisecond, sim.Second, 3*tr.period + 7}
		now := sim.Time(0)
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 80: // the common case: a little later, or the same instant
				now += sim.Time(rng.Intn(4)) * sim.Time(rng.Intn(int(sim.Millisecond)))
			case r < 84: // the next period
				now += tr.period
			case r < 91: // idle for many periods
				now += sim.Time(2+rng.Intn(40))*tr.period + sim.Time(rng.Int63n(int64(tr.period)))
			case r < 97: // backwards, possibly to before time zero
				now -= sim.Time(rng.Int63n(3 * int64(tr.period)))
				if now < -5*sim.Millisecond {
					now = -5 * sim.Millisecond
				}
			default:
				now = -1
			}
			// Which way will the upper end go if the next query is about
			// [now, now+1)? Asked of a copy, so the cursor is undisturbed.
			if probe := c.to; now >= 0 && tr.walk(&probe, now+1) {
				walks++
			} else if now >= 0 {
				relocations++
			}
			w := windows[rng.Intn(len(windows))]
			switch rng.Intn(5) {
			case 0: // what TraceLink.opportunity asks
				if got, want := c.CountIn(now, now+1), tr.CountIn(now, now+1); got != want || want != bruteCount(tr, now+1)-bruteCount(tr, now) {
					t.Fatalf("seed %d step %d: CountIn(%d, %d) = %d, trace says %d", seed, step, now, now+1, got, want)
				}
				fallthrough
			case 1:
				if got, want := c.NextOpportunity(now), tr.NextOpportunity(now); got != want || want != bruteNext(tr, now) {
					t.Fatalf("seed %d step %d: NextOpportunity(%d) = %d, trace says %d, brute force %d", seed, step, now, got, want, bruteNext(tr, now))
				}
			case 2: // includes to <= from and from < 0
				from := now - w
				got, want := c.CountIn(from, now), tr.CountIn(from, now)
				brute := int64(0)
				if now > from {
					brute = bruteCount(tr, now) - bruteCount(tr, from)
				}
				if got != want || want != brute {
					t.Fatalf("seed %d step %d: CountIn(%d, %d) = %d, trace says %d, brute force %d", seed, step, from, now, got, want, brute)
				}
			case 3:
				if got, want := c.CapacityBps(now, w), tr.CapacityBps(now, w); got != want {
					t.Fatalf("seed %d step %d: CapacityBps(%d, %d) = %v, trace says %v", seed, step, now, w, got, want)
				}
			case 4:
				if got, want := c.FutureCapacityBps(now, w), tr.FutureCapacityBps(now, w); got != want {
					t.Fatalf("seed %d step %d: FutureCapacityBps(%d, %d) = %v, trace says %v", seed, step, now, w, got, want)
				}
			}
		}
	}
	if walks < 1000 || relocations < 1000 {
		t.Fatalf("%d walks and %d relocations: the script no longer covers both of seek's paths", walks, relocations)
	}
}

// TestSeekWalksAndRelocates pins which queries walk and which relocate,
// and that either way the position is exactly where locate puts it.
func TestSeekWalksAndRelocates(t *testing.T) {
	ms := sim.Millisecond
	// 40 opportunities, two per even millisecond, period 40 ms.
	var ops []sim.Time
	for i := 0; i < 20; i++ {
		ops = append(ops, sim.Time(2*i)*ms, sim.Time(2*i)*ms)
	}
	tr, err := New("t", ops, 40*ms)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		from, to sim.Time
		walk     bool
	}{
		{"same instant", 5 * ms, 5 * ms, true},
		{"a few opportunities on", 5 * ms, 9 * ms, true},
		{"more than cursorSteps on, same period", 1 * ms, 39 * ms, true},
		{"into the next period", 38 * ms, 43 * ms, true},
		{"onto the period boundary", 39 * ms, 40 * ms, true},
		{"last instant of the next period", 3 * ms, 80*ms - 1, true},
		{"two periods on", 3 * ms, 83 * ms, false},
		{"many periods on", 3 * ms, 4003 * ms, false},
		{"back within the period", 30 * ms, 10 * ms, false},
		{"back across a period", 50 * ms, 10 * ms, false},
		{"back to zero", 50 * ms, 0, false},
		{"back, but past no opportunity", 5*ms + 10, 5*ms + 3, true},
	}
	for _, c := range cases {
		var p, want pos
		tr.locate(&p, c.from)
		tr.locate(&want, c.to)
		if walked := tr.walk(&p, c.to); walked != c.walk {
			t.Errorf("%s: walk %d -> %d = %v, want %v", c.name, c.from, c.to, walked, c.walk)
		} else if walked && p != want {
			t.Errorf("%s: walk %d -> %d left %+v, locate says %+v", c.name, c.from, c.to, p, want)
		}
		tr.locate(&p, c.from)
		if tr.seek(&p, c.to); p != want {
			t.Errorf("%s: seek %d -> %d left %+v, locate says %+v", c.name, c.from, c.to, p, want)
		}
	}
}
