package sim

import (
	"math/rand"
	"testing"
)

// TestRunUntilAfterHalt is the regression test for the clock moving
// backwards: a halted RunUntil used to jump the clock to end although
// events before end were still queued, so the next Run* call executed
// them in the past.
func TestRunUntilAfterHalt(t *testing.T) {
	s := New(1)
	var at []Time
	s.At(Millisecond, func() { at = append(at, s.Now()); s.Halt() })
	s.At(2*Millisecond, func() { at = append(at, s.Now()) })
	s.RunUntil(10 * Millisecond)
	if s.Now() != Millisecond || s.Pending() != 1 {
		t.Fatalf("halted RunUntil left clock at %v with %d pending, want 1ms and 1", s.Now(), s.Pending())
	}
	last := s.Now()
	s.RunUntil(10 * Millisecond)
	if len(at) != 2 || at[1] != 2*Millisecond {
		t.Fatalf("events fired at %v, want [1ms 2ms]", at)
	}
	for _, now := range append(at, s.Now()) {
		if now < last {
			t.Fatalf("clock moved backwards: %v after %v", now, last)
		}
		last = now
	}
	if s.Now() != 10*Millisecond {
		t.Errorf("clock = %v after the resumed run, want 10ms", s.Now())
	}
}

// TestChainZeroValue: a zero Chain works on a fresh simulator, keeps one
// heap entry however many events wait on it, and counts them all as
// pending.
func TestChainZeroValue(t *testing.T) {
	s := New(1)
	var c Chain
	var got []int
	vals := []int{0, 1, 2, 3}
	fire := func(a, _ any) { got = append(got, *a.(*int)) }
	for i := range vals {
		s.ChainAfterArgs(&c, 5*Millisecond, fire, &vals[i], nil)
		s.RunUntil(s.Now() + Millisecond)
	}
	if s.Pending() != 4 || len(s.heap) != 1 {
		t.Fatalf("Pending() = %d with %d heap entries, want 4 and 1", s.Pending(), len(s.heap))
	}
	s.Run()
	if len(got) != 4 || got[0] != 0 || got[3] != 3 || s.Now() != 8*Millisecond || s.Pending() != 0 {
		t.Errorf("fired %v, clock %v, pending %d", got, s.Now(), s.Pending())
	}
}

// TestChainSteadyStateAllocs: chain storage is the simulator's slab, so
// scheduling and firing through a warm chain allocates nothing.
func TestChainSteadyStateAllocs(t *testing.T) {
	s := New(1)
	var c Chain
	nop := func(a, b any) {}
	round := func() {
		for i := 0; i < 64; i++ {
			s.ChainAfterArgs(&c, Millisecond, nop, s, nil)
			s.RunUntil(s.Now() + 10*Microsecond)
		}
		s.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Errorf("steady-state chain schedule/run allocated %.1f times per run, want 0", allocs)
	}
}

// The differential order test drives two queues with one script: the
// simulator, and a reference that keeps every pending event in a flat
// list and always fires the smallest (at, seq).

const orderChains = 3

// orderQueue is what the script needs from either side.
type orderQueue interface {
	now() Time
	pending() int
	ordinary(d Time, closure bool, id int)
	chained(c int, d Time, id int)
	stop(id int) bool
	runUntil(end Time)
}

// orderScript holds the part of the script that runs inside events, so
// that both sides schedule from callbacks in the same way.
type orderScript struct {
	q      orderQueue
	nextID int
	delays [orderChains]Time
	log    []int
}

func (sc *orderScript) newID() int { sc.nextID++; return sc.nextID }

func (sc *orderScript) fired(id int) {
	sc.log = append(sc.log, id)
	switch {
	case id%3 == 0:
		c := id % orderChains
		sc.q.chained(c, sc.delays[c], sc.newID())
	case id%7 == 0:
		sc.q.ordinary(0, id%2 == 0, sc.newID())
	}
}

type simQueue struct {
	sc     *orderScript
	s      *Simulator
	chains [orderChains]Chain
	timers map[int]Timer
	ids    []int // boxed ids, so an ArgsFunc can carry one
	// maxChained is the most events seen waiting behind chain heads.
	maxChained int
}

func (q *simQueue) box(id int) *int {
	for len(q.ids) <= id {
		q.ids = append(q.ids, len(q.ids))
	}
	return &q.ids[id]
}

func simQueueFire(a, b any)      { a.(*simQueue).sc.fired(*b.(*int)) }
func (q *simQueue) now() Time    { return q.s.Now() }
func (q *simQueue) pending() int { return q.s.Pending() }
func (q *simQueue) ordinary(d Time, closure bool, id int) {
	if closure {
		q.timers[id] = q.s.At(q.s.Now()+d, func() { q.sc.fired(id) })
	} else {
		q.timers[id] = q.s.AfterArgs(d, simQueueFire, q, q.box(id))
	}
}
func (q *simQueue) chained(c int, d Time, id int) {
	q.s.ChainAfterArgs(&q.chains[c], d, simQueueFire, q, q.box(id))
	if q.s.chained > q.maxChained {
		q.maxChained = q.s.chained
	}
}
func (q *simQueue) stop(id int) bool  { return q.timers[id].Stop() }
func (q *simQueue) runUntil(end Time) { q.s.RunUntil(end) }

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refQueue struct {
	sc  *orderScript
	t   Time
	seq uint64
	q   []refEvent
	// tailAt is each chain's newest timestamp; fallbacks counts chained
	// schedules earlier than it, which the simulator must have turned
	// into ordinary events (tailAt is in the future then, so the tail is
	// still pending).
	tailAt    [orderChains]Time
	fallbacks int
}

func (r *refQueue) now() Time    { return r.t }
func (r *refQueue) pending() int { return len(r.q) }
func (r *refQueue) ordinary(d Time, _ bool, id int) {
	r.q = append(r.q, refEvent{r.t + d, r.seq, id})
	r.seq++
}
func (r *refQueue) chained(c int, d Time, id int) {
	if at := r.t + d; at < r.tailAt[c] {
		r.fallbacks++
	} else {
		r.tailAt[c] = at
	}
	r.ordinary(d, false, id)
}
func (r *refQueue) stop(id int) bool {
	for i, e := range r.q {
		if e.id == id {
			r.q = append(r.q[:i], r.q[i+1:]...)
			return true
		}
	}
	return false
}
func (r *refQueue) runUntil(end Time) {
	for {
		min := -1
		for i, e := range r.q {
			if e.at <= end && (min < 0 || e.at < r.q[min].at || (e.at == r.q[min].at && e.seq < r.q[min].seq)) {
				min = i
			}
		}
		if min < 0 {
			break
		}
		e := r.q[min]
		r.q = append(r.q[:min], r.q[min+1:]...)
		r.t = e.at
		r.sc.fired(e.id)
	}
	r.t = end
}

// checkHeap verifies the simulator's internal invariants: heap order,
// every key's recorded position, and the pending count.
func checkHeap(t *testing.T, s *Simulator) {
	t.Helper()
	if len(s.pos) != len(s.slots) {
		t.Fatalf("%d positions for %d slots", len(s.pos), len(s.slots))
	}
	for i, k := range s.heap {
		if i > 0 && k.before(s.heap[(i-1)/4]) {
			t.Fatalf("heap[%d] orders before its parent", i)
		}
		if int(s.pos[k.slot]) != i {
			t.Fatalf("slot %d records heap position %d, is at %d", k.slot, s.pos[k.slot], i)
		}
	}
	waiting := 0
	for _, k := range s.heap {
		for nx := s.slots[k.slot].next; nx != noSlot; nx = s.slots[nx].next {
			waiting++
		}
	}
	if waiting != s.chained || len(s.slots) != len(s.heap)+s.chained+len(s.free) {
		t.Fatalf("%d events wait on chains, counter says %d; %d slots for %d heap + %d free",
			waiting, s.chained, len(s.slots), len(s.heap), len(s.free))
	}
}

// TestOrderMatchesReference applies random interleavings of At,
// AfterArgs, chain scheduling, Timer.Stop and delay changes (from the
// top level and from inside events; with same-instant ties, zero delays
// and chains whose delay shrinks while events are in flight) to the
// simulator and to the reference, and requires the same execution order,
// clock, Stop results and Pending() after every step.
func TestOrderMatchesReference(t *testing.T) {
	delays := []Time{0, 0, Microsecond, 3 * Microsecond, 3 * Microsecond, 10 * Microsecond, 40 * Microsecond}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sq := &simQueue{s: New(seed), timers: map[int]Timer{}}
		rq := &refQueue{}
		scripts := [2]*orderScript{{q: sq}, {q: rq}}
		sq.sc, rq.sc = scripts[0], scripts[1]
		for _, sc := range scripts {
			sc.delays = [orderChains]Time{40 * Microsecond, 10 * Microsecond, 0}
		}
		var stoppable []int
		for step := 0; step < 3000; step++ {
			op, d, c := rng.Intn(10), delays[rng.Intn(len(delays))], rng.Intn(orderChains)
			pick := rng.Intn(len(stoppable) + 1)
			var stopped [2]bool
			for i, sc := range scripts {
				switch {
				case op < 2:
					id := sc.newID()
					sc.q.ordinary(d, op == 0, id)
					if i == 0 {
						stoppable = append(stoppable, id)
					}
				case op < 6:
					sc.q.chained(c, sc.delays[c], sc.newID())
				case op == 6:
					sc.delays[c] = d
				case op == 7:
					if pick < len(stoppable) {
						stopped[i] = sc.q.stop(stoppable[pick])
					}
				default:
					sc.q.runUntil(sc.q.now() + d)
				}
			}
			checkHeap(t, sq.s)
			if stopped[0] != stopped[1] {
				t.Fatalf("seed %d step %d: Stop reported %v, reference %v", seed, step, stopped[0], stopped[1])
			}
			if sq.now() != rq.now() || sq.pending() != rq.pending() {
				t.Fatalf("seed %d step %d: clock %v pending %d, reference %v and %d",
					seed, step, sq.now(), sq.pending(), rq.now(), rq.pending())
			}
			a, b := scripts[0].log, scripts[1].log
			if len(a) != len(b) {
				t.Fatalf("seed %d step %d: %d events fired, reference %d", seed, step, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d step %d: event %d of the run was id %d, reference %d", seed, step, i, a[i], b[i])
				}
			}
			scripts[0].log, scripts[1].log = a[:0], b[:0]
		}
		if rq.fallbacks == 0 || sq.maxChained < 2 {
			t.Errorf("seed %d: %d fallbacks and at most %d chained events: the script no longer covers both paths",
				seed, rq.fallbacks, sq.maxChained)
		}
		for _, sc := range scripts {
			sc.q.runUntil(sc.q.now() + Second)
		}
		if len(scripts[0].log) != len(scripts[1].log) || sq.pending() != 0 {
			t.Errorf("seed %d: drain fired %d events, reference %d; %d still pending",
				seed, len(scripts[0].log), len(scripts[1].log), sq.pending())
		}
	}
}
