package trace

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"abc/internal/sim"
)

// opsOf expands t's instants back into one entry per opportunity.
func opsOf(t *Trace) []sim.Time {
	var ops []sim.Time
	for j, at := range t.at {
		for k := t.cum[j]; k < t.cum[j+1]; k++ {
			ops = append(ops, at)
		}
	}
	return ops
}

// brute answers a trace's questions one opportunity at a time: no period
// split, no search, nothing shared with locate, seek or the instants.
type brute struct {
	ops    []sim.Time
	period sim.Time
}

func bruteOf(t *Trace) brute { return brute{opsOf(t), t.period} }

// count returns the number of opportunities in [0, x).
func (b brute) count(x sim.Time) int64 {
	var n int64
	for _, op := range b.ops {
		if x > op {
			n += int64((x-op-1)/b.period) + 1
		}
	}
	return n
}

// next returns the first opportunity strictly after now.
func (b brute) next(now sim.Time) sim.Time {
	best := sim.Time(-1)
	for _, op := range b.ops {
		at := op
		if now >= op {
			at = op + ((now-op)/b.period+1)*b.period
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

// clusteredTrace draws hundreds of instants a few nanoseconds apart and
// then a few sparse ones over a long period: the cluster fills one or two
// buckets with far more than cursorSteps instants, so a landing there
// searches, and the sparse stretch leaves buckets empty.
func clusteredTrace(rng *rand.Rand) *Trace {
	period := sim.Time(50+rng.Intn(150)) * sim.Millisecond
	at := sim.Time(rng.Int63n(int64(period / 2)))
	var ops []sim.Time
	for n := 200 + rng.Intn(300); n > 0; n-- {
		at += sim.Time(1 + rng.Intn(5))
		ops = append(ops, at)
	}
	for n := 1 + rng.Intn(10); n > 0; n-- {
		ops = append(ops, at+sim.Time(rng.Int63n(int64(period-at))))
	}
	tr, err := New("clustered", ops, period)
	if err != nil {
		panic(err)
	}
	return tr
}

// offGridTrace draws instants over an odd period, which no bucket width
// divides, so the last bucket is cut short, and puts opportunities in the
// period's last nanoseconds.
func offGridTrace(rng *rand.Rand) *Trace {
	period := (sim.Time(1+rng.Intn(200))*sim.Millisecond + sim.Time(rng.Intn(int(sim.Millisecond)))) | 1
	ops := []sim.Time{period - 1, period - 2 - sim.Time(rng.Intn(1000))}
	for n := rng.Intn(80); n > 0; n-- {
		ops = append(ops, sim.Time(rng.Int63n(int64(period))))
	}
	tr, err := New("off-grid", ops, period)
	if err != nil {
		panic(err)
	}
	return tr
}

// checkIndex holds tr's bucket index to its definition: the width is the
// smallest power of two at or above the mean gap between instants, the
// buckets cover the period with at most len(at)+1 entries, and first[b]
// counts the instants before b<<shift.
func checkIndex(t *testing.T, tr *Trace) {
	t.Helper()
	n, w := sim.Time(len(tr.at)), sim.Time(1)<<tr.shift
	if w*n < tr.period || (w > 1 && w/2*n >= tr.period) {
		t.Fatalf("%s: width %d for %d instants over %d", tr.Name, w, n, tr.period)
	}
	if len(tr.first) > len(tr.at)+1 || sim.Time(len(tr.first)-1)*w < tr.period {
		t.Fatalf("%s: %d index entries for %d instants", tr.Name, len(tr.first), len(tr.at))
	}
	for b := range tr.first {
		before := 0
		for _, at := range tr.at {
			if at < sim.Time(b)*w {
				before++
			}
		}
		if int(tr.first[b]) != before {
			t.Fatalf("%s: first[%d] = %d, %d instants before %d", tr.Name, b, tr.first[b], before, sim.Time(b)*w)
		}
	}
}

// landing names how lowerBound(0, rem) finds its answer in rem's bucket:
// a direct hit on the bucket's first instant (or its end), a forward scan
// past one or more instants, or a binary search in a bucket of more than
// cursorSteps.
func landing(tr *Trace, rem sim.Time) string {
	b := rem >> tr.shift
	lo, hi := int(tr.first[b]), int(tr.first[b+1])
	switch {
	case hi-lo > cursorSteps:
		return "search"
	case lo < hi && tr.at[lo] < rem:
		return "scan"
	}
	return "hit"
}

// TestCursorMatchesTrace asks one cursor and its trace the same random
// questions, mostly with a clock that creeps forward or, as a busy link's
// does, goes to the instant the last Step returned, but also after idling
// for many periods and waking mid-period, stepping back, at now = -1 and
// over empty intervals; every answer must be the stateless method's, and
// Step, CountIn and NextOpportunity must also agree with a brute-force
// count. Besides randomTrace's kinds it draws clustered and off-grid
// traces, holds every trace's index to its definition, and requires all
// three ways of landing in a bucket to have run. Its "like a link" part
// drives hand-made traces as a link does.
func TestCursorMatchesTrace(t *testing.T) {
	t.Run("like a link", stepLikeALink)
	var stands, walks, relocations int
	landings := map[string]int{}
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tr *Trace
		switch {
		case seed <= 60:
			tr = randomTrace(rng)
		case seed <= 70:
			tr = clusteredTrace(rng)
		default:
			tr = offGridTrace(rng)
		}
		checkIndex(t, tr)
		bf := bruteOf(tr)
		c := tr.Cursor()
		windows := []sim.Time{0, -sim.Millisecond, 1, 80 * sim.Millisecond, sim.Second, 3*tr.period + 7}
		now, stepped := sim.Time(0), sim.Time(-1)
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 30 && stepped >= 0: // a busy link: the instant the last step returned
				now = stepped
			case r < 72: // a little later, or the same instant
				now += sim.Time(rng.Intn(4)) * sim.Time(rng.Intn(int(sim.Millisecond)))
			case r < 80: // on or beside one of the period's instants
				now = max(now, 0)/tr.period*tr.period + tr.at[rng.Intn(len(tr.at))] + sim.Time(rng.Intn(3)-1)
			case r < 84: // the next period
				now += tr.period
			case r < 91: // idle for many periods, waking mid-period
				now += sim.Time(2+rng.Intn(40))*tr.period + sim.Time(rng.Int63n(int64(tr.period)))
			case r < 97: // backwards, possibly to before time zero
				now -= sim.Time(rng.Int63n(3 * int64(tr.period)))
				if now < -5*sim.Millisecond {
					now = -5 * sim.Millisecond
				}
			default:
				now = -1
			}
			// Does the upper end already stand on now, or will it walk or
			// relocate to reach it? Asked of a copy, so the cursor is
			// undisturbed.
			if now >= -1 {
				landings[landing(tr, (now+1)%tr.period)]++ // NextOpportunity's
			}
			switch probe := c.to; {
			case now < 0:
			case probe.next(tr) == now:
				stands++
			case tr.walk(&probe, now):
				walks++
			default:
				relocations++
			}
			w := windows[rng.Intn(len(windows))]
			switch rng.Intn(6) {
			case 0, 1: // what TraceLink.opportunity asks
				k, next := c.Step(now)
				if wantK, wantNext := tr.CountIn(now, now+1), tr.NextOpportunity(now); k != wantK || next != wantNext ||
					wantK != bf.count(now+1)-bf.count(now) || wantNext != bf.next(now) {
					t.Fatalf("seed %d step %d: Step(%d) = %d, %d; trace says %d, %d; brute force %d, %d", seed, step, now, k, next,
						wantK, wantNext, bf.count(now+1)-bf.count(now), bf.next(now))
				}
				stepped = next
			case 2:
				if got, want := c.NextOpportunity(now), tr.NextOpportunity(now); got != want || want != bf.next(now) {
					t.Fatalf("seed %d step %d: NextOpportunity(%d) = %d, trace says %d, brute force %d", seed, step, now, got, want, bf.next(now))
				}
			case 3: // includes to <= from, from < 0 and [now, now+1)
				from := now - w
				got, want := c.CountIn(from, now), tr.CountIn(from, now)
				brute := int64(0)
				if now > from {
					brute = bf.count(now) - bf.count(from)
				}
				if got != want || want != brute {
					t.Fatalf("seed %d step %d: CountIn(%d, %d) = %d, trace says %d, brute force %d", seed, step, from, now, got, want, brute)
				}
			case 4:
				if got, want := c.CapacityBps(now, w), tr.CapacityBps(now, w); got != want {
					t.Fatalf("seed %d step %d: CapacityBps(%d, %d) = %v, trace says %v", seed, step, now, w, got, want)
				}
			case 5:
				if got, want := c.FutureCapacityBps(now, w), tr.FutureCapacityBps(now, w); got != want {
					t.Fatalf("seed %d step %d: FutureCapacityBps(%d, %d) = %v, trace says %v", seed, step, now, w, got, want)
				}
			}
		}
	}
	t.Logf("%d stands, %d walks, %d relocations; landings %v", stands, walks, relocations, landings)
	if stands < 1000 || walks < 1000 || relocations < 1000 {
		t.Fatalf("%d stands, %d walks and %d relocations: the script no longer covers all three of Step's paths", stands, walks, relocations)
	}
	if landings["hit"] < 1000 || landings["scan"] < 1000 || landings["search"] < 1000 {
		t.Fatalf("landings %v: the script no longer covers all three ways into a bucket", landings)
	}
}

// stepLikeALink steps a cursor the way a trace link does — from each
// delivery instant to the next one Step returns, idling now and then for
// whole periods and waking mid-period or on a period edge — over traces
// with repeated timestamps, opportunities on both period edges and a
// single opportunity a period. Every instant must carry exactly its
// opportunities, and over each busy stretch the steps must visit every
// opportunity once.
func stepLikeALink(t *testing.T) {
	ms := sim.Millisecond
	traces := []struct {
		name   string
		ops    []sim.Time
		period sim.Time
	}{
		{"repeats on both edges", []sim.Time{0, 0, 0, 3 * ms, 3 * ms, 7 * ms, 10*ms - 1, 10*ms - 1}, 10 * ms},
		{"one a period", []sim.Time{4 * ms}, 10 * ms},
		{"one a period, on the edge", []sim.Time{0}, ms},
		{"one instant, many opportunities", []sim.Time{2 * ms, 2 * ms, 2 * ms, 2 * ms}, 5 * ms},
		{"cellular", opsOf(Cellular("c", CellParams{Seed: 3, Duration: 400 * ms, MeanMbps: 30})), 400 * ms},
	}
	for _, tc := range traces {
		tr, err := New(tc.name, tc.ops, tc.period)
		if err != nil {
			t.Fatal(err)
		}
		bf := bruteOf(tr)
		c := tr.Cursor()
		rng := rand.New(rand.NewSource(7))
		wakes := []sim.Time{0, 1, tr.period/2 + 1, tr.period - 1}
		now := sim.Time(0)
		for busy := 0; busy < 30; busy++ {
			// Wake after idling: the first instant strictly after now.
			next := c.NextOpportunity(now)
			if want := bf.next(now); next != want {
				t.Fatalf("%s: woken at %d, next instant %d, want %d", tc.name, now, next, want)
			}
			from := next
			var served int64
			for n := rng.Intn(3 * len(tr.at)); n >= 0; n-- {
				now = next
				var k int64
				k, next = c.Step(now)
				if want := bf.count(now+1) - bf.count(now); k != want || k < 1 {
					t.Fatalf("%s: Step(%d) = %d opportunities, want %d (>= 1)", tc.name, now, k, want)
				}
				if want := bf.next(now); next != want {
					t.Fatalf("%s: Step(%d) next = %d, want %d", tc.name, now, next, want)
				}
				served += k
			}
			if want := bf.count(now+1) - bf.count(from); served != want {
				t.Fatalf("%s: steps from %d to %d served %d opportunities, want %d", tc.name, from, now, served, want)
			}
			// Idle for zero to three whole periods, waking mid-period or
			// on an edge.
			now += sim.Time(rng.Intn(4))*tr.period + wakes[rng.Intn(len(wakes))]
		}
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

// TestSharedTraceConcurrentQueries: a sweep's parallel cells share one
// *Trace, so several goroutines ask it at once, each through the
// stateless methods and through a cursor of its own, one with a clock
// that moves forward and the others in orders of their own. Every answer
// must be the one the trace gave when asked alone. CI runs it under
// -race.
func TestSharedTraceConcurrentQueries(t *testing.T) {
	tr := Cellular("shared", CellParams{Seed: 5, Duration: 2 * sim.Second, MeanMbps: 20, OutageProb: 0.02})
	const window = 100 * sim.Millisecond
	rng := rand.New(rand.NewSource(1))
	queries := make([]sim.Time, 3000)
	for i := range queries {
		queries[i] = sim.Time(rng.Int63n(int64(5 * tr.Period())))
	}
	slices.Sort(queries)
	type answer struct {
		k, inWindow int64
		next        sim.Time
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		want[i] = answer{tr.CountIn(q, q+1), tr.CountIn(q, q+window), tr.NextOpportunity(q)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		order := rand.New(rand.NewSource(int64(g))).Perm(len(queries))
		if g == 0 {
			slices.Sort(order)
		}
		wg.Add(1)
		go func(g int, order []int) {
			defer wg.Done()
			c := tr.Cursor()
			for _, i := range order {
				q := queries[i]
				stateless := answer{tr.CountIn(q, q+1), tr.CountIn(q, q+window), tr.NextOpportunity(q)}
				k, next := c.Step(q)
				if cursor := (answer{k, c.CountIn(q, q+window), next}); stateless != want[i] || cursor != want[i] {
					t.Errorf("goroutine %d, query %d: trace says %+v, cursor %+v, asked alone %+v", g, q, stateless, cursor, want[i])
					return
				}
			}
		}(g, order)
	}
	wg.Wait()
}
