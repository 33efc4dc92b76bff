package sim

import (
	"math/rand"
	"slices"
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

// TestLineOneKey: a line keeps one heap entry however many events wait
// on it, counts them all as pending, and fires them in sending order at
// send time plus its delay. The zero Line is no simulator's line.
func TestLineOneKey(t *testing.T) {
	s := New(1)
	if (Line{}).Is(s, 0) {
		t.Fatal("the zero Line claims to be a line of s")
	}
	l := s.Line(5 * Millisecond)
	if !l.Is(s, 5*Millisecond) || l.Is(s, 0) || l.Is(New(1), 5*Millisecond) {
		t.Fatalf("Line(5ms) = %+v: Is disagrees with the delay asked for", l)
	}
	if again := s.Line(5 * Millisecond); again != l || s.Line(-Millisecond) != s.Line(0) {
		t.Fatal("Line returned two handles for one delay")
	}
	var got []int
	vals := []int{0, 1, 2, 3}
	fire := func(a, _ any) { got = append(got, *a.(*int)) }
	for i := range vals {
		l.AfterArgs(fire, &vals[i], nil)
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

// TestLineSteadyStateAllocs: a line's events live in the simulator's
// slab and its entry in the delay table, so asking for a known delay,
// scheduling on it and firing allocate nothing.
func TestLineSteadyStateAllocs(t *testing.T) {
	s := New(1)
	nop := func(a, b any) {}
	round := func() {
		l := s.Line(Millisecond)
		for i := 0; i < 64; i++ {
			l.AfterArgs(nop, s, nil)
			s.RunUntil(s.Now() + 10*Microsecond)
		}
		s.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Errorf("steady-state line schedule/run allocated %.1f times per run, want 0", allocs)
	}
}

// TestOneDelayOneKey: 100 sources of one delay (wires, as netem.Wire
// holds them: each asks for its own handle) with packets in flight hold
// exactly one heap key between them, and sources of other delays one
// key per delay.
func TestOneDelayOneKey(t *testing.T) {
	s := New(1)
	wires := make([]Line, 100)
	for i := range wires {
		wires[i] = s.Line(50 * Millisecond)
	}
	nop := func(a, b any) {}
	for round := 0; round < 3; round++ {
		for _, w := range wires {
			w.AfterArgs(nop, nil, nil)
		}
		s.RunUntil(s.Now() + Millisecond)
	}
	checkHeap(t, s)
	if s.Pending() != 300 || len(s.heap) != 1 || len(s.lines) != 1 {
		t.Fatalf("%d pending on %d heap keys and %d lines, want 300 on 1 and 1", s.Pending(), len(s.heap), len(s.lines))
	}
	for i := range wires {
		s.Line(Time(i%4)*Millisecond).AfterArgs(nop, nil, nil)
	}
	checkHeap(t, s)
	if len(s.heap) != 5 || len(s.lines) != 5 {
		t.Fatalf("%d heap keys and %d lines after sends at 4 more delays, want 5 and 5", len(s.heap), len(s.lines))
	}
	s.Run()
	if s.Pending() != 0 || s.Executed() != 400 {
		t.Fatalf("%d pending and %d executed after the drain, want 0 and 400", s.Pending(), s.Executed())
	}
}

// TestVacantRoot: an event that re-arms itself reuses the root it left
// vacant, and Pending, Timer.Stop and the next step settle a vacancy no
// push filled.
func TestVacantRoot(t *testing.T) {
	s := New(1)
	nop := func(a, b any) {}
	for i := 1; i <= 5; i++ {
		s.AtArgs(Time(i)*Second, nop, nil, nil)
	}
	var late Timer
	n := 0
	var rearm ArgsFunc
	rearm = func(a, b any) {
		if !s.vacant {
			t.Errorf("event %d fired without leaving the root vacant", n)
		}
		switch n++; n {
		case 1, 2:
			s.AfterArgs(Millisecond, rearm, nil, nil)
			if s.vacant || s.heap[0].at != s.Now()+Millisecond {
				t.Errorf("event %d: the re-armed event did not take the vacant root", n)
			}
		case 3:
			late = s.AfterArgs(5*Millisecond, nop, nil, nil)
			s.AfterArgs(Millisecond, rearm, nil, nil)
		case 4:
			if !late.Stop() || s.vacant || s.Pending() != 5 {
				t.Errorf("Stop from a vacant root: the timer or the vacancy survived (%d pending)", s.Pending())
			}
			s.AfterArgs(Millisecond, rearm, nil, nil)
		case 5:
			if s.Pending() != 5 || s.vacant {
				t.Errorf("Pending() = %d with the root vacant %v, want 5 and settled", s.Pending(), s.vacant)
			}
		}
		checkHeap(t, s)
	}
	s.AfterArgs(0, rearm, nil, nil)
	s.RunUntil(10 * Millisecond)
	checkHeap(t, s)
	if n != 5 || s.Pending() != 5 {
		t.Fatalf("%d re-arming events fired, %d pending, want 5 and 5", n, s.Pending())
	}
}

// The differential order test drives two queues with one script: the
// simulator under a Coordinator, and a reference that keeps every
// pending event in a flat list, always fires the smallest (at, seq),
// and fires a barrier at g once no event before g remains.

const orderSources = 3

// orderQueue is what the script needs from either side.
type orderQueue interface {
	now() Time
	pending() int
	// ordinary schedules id d from now: by At with a closure (kind 0),
	// AfterArgs (1) or AtArgs (2).
	ordinary(d Time, kind, id int)
	// lined schedules id on the delay line for d, through source c's
	// handle (c < 0: a handle asked for on the spot).
	lined(c int, d Time, id int)
	stop(id int) bool
	// global adds a timeline event d > 0 from now.
	global(d Time, id int)
	// halt ends the running runUntil after the current event, with the
	// clock left there.
	halt()
	runUntil(end Time)
}

// orderScript holds the part of the script that runs inside events and
// barriers, so that both sides schedule from callbacks in the same way.
// The log records every fired id, and the Pending() and Stop results
// read from inside callbacks.
type orderScript struct {
	q         orderQueue
	nextID    int
	delays    [orderSources]Time
	stoppable []int
	log       []int
}

// Markers in the log, below every id.
const (
	logHook    = -1
	logStopped = -2
	logMissed  = -3
	logPending = -1000 // minus the count
)

func (sc *orderScript) newID() int { sc.nextID++; return sc.nextID }

// schedule adds an ordinary event and makes it stoppable.
func (sc *orderScript) schedule(d Time, kind int) {
	id := sc.newID()
	sc.q.ordinary(d, kind, id)
	sc.stoppable = append(sc.stoppable, id)
}

// stopOne stops the stoppable event picked by n, logging the result.
func (sc *orderScript) stopOne(n int) bool {
	if len(sc.stoppable) == 0 {
		return false
	}
	ok := sc.q.stop(sc.stoppable[n%len(sc.stoppable)])
	if ok {
		sc.log = append(sc.log, logStopped)
	} else {
		sc.log = append(sc.log, logMissed)
	}
	return ok
}

func (sc *orderScript) fired(id int) {
	sc.log = append(sc.log, id)
	switch {
	case id%3 == 0:
		c := id % orderSources
		sc.q.lined(c, sc.delays[c], sc.newID())
	case id%7 == 0:
		sc.schedule(Time(id%3)*Microsecond, id%3)
	case id%5 == 0:
		sc.stopOne(id)
	case id%11 == 0:
		sc.log = append(sc.log, logPending-sc.q.pending())
	case id%13 == 0:
		sc.q.halt()
	}
}

// hook is a barrier callback: a timeline event or an Every tick.
func (sc *orderScript) hook(id int) {
	sc.log = append(sc.log, logHook, id, logPending-sc.q.pending())
	if id%2 == 0 {
		c := id % orderSources
		sc.q.lined(c, sc.delays[c], sc.newID())
	} else {
		sc.schedule(0, id%3)
	}
}

// orderTick is the period of the Every hook both sides run.
const orderTick = 17 * Microsecond

type simQueue struct {
	sc     *orderScript
	s      *Simulator
	c      *Coordinator
	lines  [orderSources]Line
	timers map[int]Timer
	ids    []int // boxed ids, so an ArgsFunc can carry one
	// maxWaiting is the most events seen waiting behind line heads, and
	// vacantReads counts Stop and Pending calls made with the root
	// vacant.
	maxWaiting, vacantReads int
}

func (q *simQueue) box(id int) *int {
	for len(q.ids) <= id {
		q.ids = append(q.ids, len(q.ids))
	}
	return &q.ids[id]
}

func simQueueFire(a, b any)   { a.(*simQueue).sc.fired(*b.(*int)) }
func (q *simQueue) now() Time { return q.s.Now() }
func (q *simQueue) pending() int {
	if q.s.vacant {
		q.vacantReads++
	}
	return q.s.Pending()
}
func (q *simQueue) ordinary(d Time, kind, id int) {
	switch kind {
	case 0:
		q.timers[id] = q.s.At(q.s.Now()+d, func() { q.sc.fired(id) })
	case 1:
		q.timers[id] = q.s.AfterArgs(d, simQueueFire, q, q.box(id))
	default:
		q.timers[id] = q.s.AtArgs(q.s.Now()+d, simQueueFire, q, q.box(id))
	}
}

// lined sends as a wire would: source c keeps its handle while its
// delay stays, and asks for a new one when the delay changed.
func (q *simQueue) lined(c int, d Time, id int) {
	l := q.s.Line(d)
	if c >= 0 {
		if !q.lines[c].Is(q.s, d) {
			q.lines[c] = q.s.Line(d)
		}
		l = q.lines[c]
	}
	l.AfterArgs(simQueueFire, q, q.box(id))
	q.maxWaiting = max(q.maxWaiting, q.s.waiting)
}
func (q *simQueue) stop(id int) bool {
	if q.s.vacant {
		q.vacantReads++
	}
	return q.timers[id].Stop()
}
func (q *simQueue) global(d Time, id int) {
	q.c.GlobalAt(q.s.Now()+d, func() { q.sc.hook(id) })
}
func (q *simQueue) halt()             { q.s.Halt() }
func (q *simQueue) runUntil(end Time) { q.c.Run(end) }

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refQueue struct {
	sc      *orderScript
	halted  bool
	t       Time
	seq     uint64
	q       []refEvent
	globals []refEvent // in registration order
	tick    Time       // the Every hook's next instant
}

func (r *refQueue) now() Time    { return r.t }
func (r *refQueue) pending() int { return len(r.q) }
func (r *refQueue) ordinary(d Time, _, id int) {
	r.q = append(r.q, refEvent{r.t + d, r.seq, id})
	r.seq++
}
func (r *refQueue) lined(_ int, d Time, id int) { r.ordinary(d, 0, id) }
func (r *refQueue) stop(id int) bool {
	for i, e := range r.q {
		if e.id == id {
			r.q = append(r.q[:i], r.q[i+1:]...)
			return true
		}
	}
	return false
}
func (r *refQueue) halt() { r.halted = true }
func (r *refQueue) global(d Time, id int) {
	r.globals = append(r.globals, refEvent{at: r.t + d, id: id})
}

// runUntil fires, up to end, whichever comes first: the smallest (at,
// seq) event, or the earliest barrier instant g once no event before g
// remains — there the timeline events at g in registration order, then
// the hook.
func (r *refQueue) runUntil(end Time) {
	for {
		g := min(r.tick, end+1)
		for _, e := range r.globals {
			g = min(g, e.at)
		}
		min := -1
		for i, e := range r.q {
			if e.at < g && (min < 0 || e.at < r.q[min].at || (e.at == r.q[min].at && e.seq < r.q[min].seq)) {
				min = i
			}
		}
		if min >= 0 {
			e := r.q[min]
			r.q = append(r.q[:min], r.q[min+1:]...)
			r.t = e.at
			if r.sc.fired(e.id); r.halted {
				r.halted = false
				return
			}
			continue
		}
		if g > end {
			break
		}
		r.t = g
		for i := 0; i < len(r.globals); i++ {
			if e := r.globals[i]; e.at == g {
				r.globals = append(r.globals[:i], r.globals[i+1:]...)
				i--
				r.sc.hook(e.id)
			}
		}
		if r.tick == g {
			r.tick += orderTick
			r.sc.hook(0)
		}
	}
	r.t = end
}

// checkHeap verifies the simulator's internal invariants: heap order,
// every key's recorded position, the pending count and every line's
// tail. A vacant root holds the fired event's key, which is checked
// against nothing and counts as no pending event.
func checkHeap(t *testing.T, s *Simulator) {
	t.Helper()
	if len(s.pos) != len(s.slots) {
		t.Fatalf("%d positions for %d slots", len(s.pos), len(s.slots))
	}
	live := s.heap
	if s.vacant {
		if len(s.heap) == 0 {
			t.Fatal("vacant root in an empty heap")
		}
		live = s.heap[1:]
	}
	first := len(s.heap) - len(live)
	for j, k := range live {
		i := first + j
		if p := (i - 1) / 4; i > 0 && !(p == 0 && s.vacant) && k.before(s.heap[p]) {
			t.Fatalf("heap[%d] orders before its parent", i)
		}
		if int(s.pos[k.slot]) != i {
			t.Fatalf("slot %d records heap position %d, is at %d", k.slot, s.pos[k.slot], i)
		}
		if s.slots[k.slot].fn == nil {
			t.Fatalf("heap[%d] names slot %d, which holds no event", i, k.slot)
		}
	}
	waiting := 0
	for _, k := range live {
		prev := key{at: k.at, seq: k.seq}
		for nx := s.slots[k.slot].next; nx != noSlot; nx = s.slots[nx].next {
			sl := &s.slots[nx]
			if k := (key{at: sl.at, seq: sl.seq}); k.before(prev) {
				t.Fatalf("slot %d orders before its line predecessor", nx)
			}
			prev = key{at: sl.at, seq: sl.seq}
			waiting++
		}
	}
	if waiting != s.waiting || len(s.slots) != len(live)+s.waiting+len(s.free) {
		t.Fatalf("%d events wait on lines, counter says %d; %d slots for %d heap + %d free",
			waiting, s.waiting, len(s.slots), len(live), len(s.free))
	}
	for i, q := range s.lines {
		if len(s.slots) == 0 {
			break
		}
		if sl := &s.slots[q.tail]; sl.gen == q.gen && (sl.fn == nil || sl.next != noSlot) {
			t.Fatalf("line %d (delay %v) names slot %d as its pending tail, which is not one", i, q.d, q.tail)
		}
	}
}

// TestOrderMatchesReference applies random interleavings of At,
// AfterArgs, AtArgs, sends on delay lines (several delays, 0 included,
// through sources whose delay changes while events are in flight),
// Timer.Stop, Pending(), Halt, timeline events and an Every hook —
// from the top level, from inside events (where the root is vacant)
// and from inside barrier callbacks — to the simulator under a
// Coordinator and to the reference, and requires the same execution
// order, clock, Stop results and Pending() after every step and inside
// every callback.
func TestOrderMatchesReference(t *testing.T) {
	delays := []Time{0, 0, Microsecond, 3 * Microsecond, 3 * Microsecond, 10 * Microsecond, 40 * Microsecond}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		sq := &simQueue{s: s, c: NewCoordinator(s), timers: map[int]Timer{}}
		rq := &refQueue{tick: orderTick}
		scripts := [2]*orderScript{{q: sq}, {q: rq}}
		sq.sc, rq.sc = scripts[0], scripts[1]
		for _, sc := range scripts {
			sc.delays = [orderSources]Time{40 * Microsecond, 10 * Microsecond, 0}
		}
		sq.c.Every(orderTick, func(Time) { scripts[0].hook(0) })
		var stopped [2]bool
		for step := 0; step < 3000; step++ {
			op, d, c := rng.Intn(12), delays[rng.Intn(len(delays))], rng.Intn(orderSources)
			n := rng.Intn(1 << 20)
			for i, sc := range scripts {
				switch {
				case op < 3:
					sc.schedule(d, op)
				case op < 6:
					sc.q.lined(c, sc.delays[c], sc.newID())
				case op == 6:
					sc.q.lined(-1, d, sc.newID())
				case op == 7:
					sc.delays[c] = d
				case op == 8:
					stopped[i] = sc.stopOne(n)
				case op == 9:
					sc.q.global(d+Microsecond, sc.newID())
				default:
					sc.q.runUntil(sc.q.now() + d)
				}
			}
			checkHeap(t, s)
			if stopped[0] != stopped[1] {
				t.Fatalf("seed %d step %d: Stop reported %v, reference %v", seed, step, stopped[0], stopped[1])
			}
			if sq.now() != rq.now() || sq.pending() != rq.pending() {
				t.Fatalf("seed %d step %d: clock %v pending %d, reference %v and %d",
					seed, step, sq.now(), sq.pending(), rq.now(), rq.pending())
			}
			a, b := scripts[0].log, scripts[1].log
			if !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: the run logged %v, reference %v", seed, step, a, b)
			}
			scripts[0].log, scripts[1].log = a[:0], b[:0]
		}
		if sq.maxWaiting < 2 || sq.vacantReads == 0 || len(s.lines) < 4 {
			t.Errorf("seed %d: at most %d events waited on lines, %d reads of a vacant root, %d lines: the script no longer covers them",
				seed, sq.maxWaiting, sq.vacantReads, len(s.lines))
		}
		// The hook schedules an event at every tick, so nothing drains.
		for _, sc := range scripts {
			sc.q.runUntil(sc.q.now() + Millisecond)
		}
		if !slices.Equal(scripts[0].log, scripts[1].log) || sq.pending() != rq.pending() {
			t.Errorf("seed %d: the last millisecond logged %d entries, reference %d; %d pending, reference %d",
				seed, len(scripts[0].log), len(scripts[1].log), sq.pending(), rq.pending())
		}
	}
}

// TestPrivateLine: a line from NewLine is no delay's line, runs its
// events at the absolute times AtArgs gives them — the first of them
// behind the clock of a delay line's reckoning — in appending order
// with one heap entry, and refuses an event due before its tail.
func TestPrivateLine(t *testing.T) {
	s := New(1)
	l := s.NewLine()
	if s.Line(0) == l || s.Line(0).Is(s, -1) {
		t.Fatal("a private line is some delay's line")
	}
	var got []Time
	fire := func(any, any) { got = append(got, s.Now()) }
	s.RunUntil(10 * Millisecond)
	for _, at := range []Time{10, 12, 12, 30} {
		l.AtArgs(at*Millisecond, fire, nil, nil)
	}
	if s.Pending() != 4 || len(s.heap) != 1 {
		t.Fatalf("Pending() = %d with %d heap entries, want 4 and 1", s.Pending(), len(s.heap))
	}
	s.Run()
	if want := []Time{10, 12, 12, 30}; len(got) != 4 || got[0] != want[0]*Millisecond || got[1] != want[1]*Millisecond || got[3] != want[3]*Millisecond {
		t.Fatalf("fired at %v, want %v ms", got, want)
	}
	l.AtArgs(40*Millisecond, fire, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("AtArgs before the line's tail did not panic")
		}
	}()
	l.AtArgs(39*Millisecond, fire, nil, nil)
}

// TestReverseTies: with ties reversed, of the ordinary events due at one
// instant the one scheduled last runs first, and a line still runs its
// own in appending order; the default comes back when the test restores
// it.
func TestReverseTies(t *testing.T) {
	order := func() string {
		s := New(1)
		var got []byte
		note := func(a, _ any) { got = append(got, a.(byte)) }
		l := s.Line(Millisecond)
		for _, c := range []byte("abc") {
			s.AtArgs(Millisecond, note, c, nil)
		}
		for _, c := range []byte("xy") {
			l.AfterArgs(note, c, nil)
		}
		s.Run()
		return string(got)
	}
	if got := order(); got != "abcxy" {
		t.Fatalf("default order %q, want abcxy", got)
	}
	prev := ReverseTies(true)
	got := order()
	ReverseTies(prev)
	if got != "xycba" {
		t.Errorf("reversed order %q, want xycba", got)
	}
	if got := order(); got != "abcxy" {
		t.Errorf("order after restoring %q, want abcxy", got)
	}
}
