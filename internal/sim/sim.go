// Package sim provides a deterministic discrete-event simulator used as the
// substrate for all network experiments in this repository.
//
// Time is virtual, measured in integer nanoseconds from the start of the
// simulation. Events are callbacks scheduled at absolute virtual times and
// executed in (time, insertion-order) order, which makes every run fully
// deterministic: two simulations configured identically (including RNG
// seeds) produce byte-identical results.
//
// The event queue is a hand-rolled 4-ary min-heap of 24-byte keys
// {at, seq, slot}. An event's payload (callback and arguments) does not
// move with its key: it lives in a slab of slots, and the key's heap
// position in a dense array indexed by slot, so a sift moves keys and
// writes 4-byte positions only. siftDown picks the smallest of four
// children in a two-round tournament (two independent pair compares,
// then one between the winners). 16-byte keys, lazy cancellation, an
// 8-ary heap and a bottom-up sift were measured and rejected (DESIGN.md
// §2 says why). Scheduling state (the heap slice, the slab, the
// positions and the free list) is recycled across events, so
// At/After/Stop and the run loop are allocation-free in steady state.
// Every event has one shape: a static ArgsFunc plus two pointer-shaped
// arguments, held inline in a 64-byte slot. At and After schedule a
// trampoline with the caller's closure as its first argument, so the
// only allocation they can cost is building that closure; hot paths
// use AtArgs/AfterArgs and build none. Timer.Stop removes the event
// from the heap eagerly, so canceled events cost nothing.
//
// The simulator owns one FIFO per distinct delay, a delay line (Line).
// A source that schedules a fixed delay ahead — the packets in flight on
// a constant-delay wire — asks for the line of its delay once and
// schedules through it. Since the clock never goes back, every event on
// a line runs at or after the one scheduled before it, so a line's events
// are linked in the slab in scheduling order and only the oldest one's
// key sits in the heap; when it fires, its successor's key replaces the
// root. The heap is then as deep as there are busy delays plus ordinary
// events, not as deep as there are packets in flight or wires carrying
// them. Determinism is untouched: a line's event takes the next sequence
// number when it is scheduled, exactly as an ordinary one would, and
// (time, seq) remains the total order: each line is sorted by it, so its
// head is its minimum and the heap root is the global minimum. A source
// whose events fall due in the order it schedules them, though not one
// fixed delay ahead — a lazily served link's handoffs — keeps a private
// line (NewLine) and appends at absolute times (Line.AtArgs).
//
// When the fired event has no line successor, step leaves the root
// vacant instead of sifting the last key into it: the first key pushed
// during the callback takes the root with one siftDown. So a link or a
// pacer that re-arms from its own event costs one sift, not a removal
// and an insertion. Every other reader of the heap (the run loop, the
// Coordinator's peek, Timer.Stop, Pending) settles a vacancy the
// callback left first. Pending() counts every scheduled, unfired event,
// on a line or not.
//
// Every experiment run is one Simulator driven by a Coordinator
// (coordinator.go), which runs it in windows and calls the run's
// timeline events and observers between them. There is no parallel
// runtime: multi-run figures fill the cores with independent runs.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Common time unit conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns t expressed in (floating point) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t expressed in (floating point) milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Duration converts t to a time.Duration. Both are int64 nanoseconds.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromDuration converts a time.Duration into a sim.Time delta.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// FromSeconds converts seconds into a sim.Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats the time with millisecond precision for logs.
func (t Time) String() string { return fmt.Sprintf("%.3fms", t.Millis()) }

// ArgsFunc is a callback that receives the two scheduling arguments given
// to AtArgs/AfterArgs. Both arguments should be pointer-shaped so that
// boxing them into the event is allocation-free.
type ArgsFunc func(a, b any)

// key is one heap entry: an event's place in the (at, seq) total order
// and the slab slot that holds its payload. seq breaks ties between
// events scheduled for the same instant: earlier-scheduled events run
// first. Sifts move only keys, so a 4-child scan reads about one cache
// line.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

// less returns 1 if k orders strictly ahead of o and 0 otherwise: the
// borrow out of the 128-bit subtraction (k.at:k.seq) - (o.at:o.seq).
// Timestamps are never negative, so the unsigned comparison is exact. It
// is branch-free on purpose: which of four children is the smallest is a
// coin toss the branch predictor loses, and siftDown asks three times a
// level.
func (k key) less(o key) uint64 {
	_, borrow := bits.Sub64(k.seq, o.seq, 0)
	_, borrow = bits.Sub64(uint64(k.at), uint64(o.at), borrow)
	return borrow
}

// before reports whether k orders strictly ahead of o.
func (k key) before(o key) bool { return k.less(o) != 0 }

// pick returns x if m is 0 and y if m is 1, without a branch.
func pick[T ~int64 | ~uint64](x, y T, m uint64) T { return x ^ (x^y)&T(-m) }

// noSlot terminates a line's next links.
const noSlot int32 = -1

// slot is one slab entry: the payload of a scheduled event plus its
// bookkeeping, 64 bytes, one cache line. fn is set exactly while the
// event is pending. A slot is recycled through the free list when its
// event fires or is stopped; gen then invalidates outstanding Timers and
// line tails.
type slot struct {
	fn   ArgsFunc
	a, b any
	// at and seq repeat the key of an event scheduled on a line, so that
	// the event can enter the heap when its predecessor fires. Ordinary
	// events leave them unset: their key lives in the heap only.
	at  Time
	seq uint64
	// next is the slot of the line successor waiting behind this event,
	// or noSlot.
	next int32
	gen  uint32
}

// Timer is a handle to a scheduled event that can be canceled. The zero
// Timer is inert: Stop on it reports false.
type Timer struct {
	s    *Simulator
	slot int32
	gen  uint32
}

// Stop cancels the timer, eagerly removing the event from the queue. It
// is safe to call multiple times and after the event has fired (in which
// case it has no effect). Reports whether the event had not yet fired.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	sl := &t.s.slots[t.slot]
	if sl.gen != t.gen {
		return false // already fired, stopped, or slot recycled
	}
	t.s.settle()
	t.s.heapRemove(int(t.s.pos[t.slot]))
	t.s.freeSlot(t.slot)
	return true
}

// line is the FIFO of the events scheduled one fixed delay ahead: they
// wait in the slab, linked in scheduling order, and only the oldest
// one's key sits in the heap. tail is the slot of the newest event and
// gen that slot's generation at the time: the tail is still pending
// exactly while the two generations match (generations start at 1, so a
// new line's zero gen never matches).
type line struct {
	d    Time
	tail int32
	gen  uint32
}

// Line is a handle on a simulator's delay line for one delay (see
// Simulator.Line). The zero Line is no line: Is reports false for it,
// and scheduling on it panics.
type Line struct {
	s *Simulator
	d Time
	i int32
}

// Is reports whether l is s's line for delay d. A holder whose delay can
// change (a wire whose Delay a caller edits, a run whose packets add
// their flow's tail) checks it before scheduling and asks s.Line(d) anew
// when it reports false.
func (l Line) Is(s *Simulator, d Time) bool { return l.s == s && l.d == d }

// AfterArgs schedules fn(a, b) to run the line's delay after the current
// time; see Simulator.AtArgs for fn, a and b. The event takes its
// sequence number now, exactly as Simulator.AfterArgs would assign it,
// and runs at the same point of the (time, insertion-order) order; there
// is no Timer because an event on a line cannot be stopped. Only the
// line's oldest pending event costs a heap entry.
func (l Line) AfterArgs(fn ArgsFunc, a, b any) { l.AtArgs(l.s.now+l.d, fn, a, b) }

// AtArgs schedules fn(a, b) on the line at absolute time t, as AfterArgs
// does at its delay. t must not come before the time of the line's
// newest pending event: a line is a FIFO, and AtArgs panics rather than
// run an event out of time order. A line of one delay meets that by
// construction; a private line (NewLine) is for a source whose events
// fall due in the order it schedules them.
func (l Line) AtArgs(t Time, fn ArgsFunc, a, b any) {
	s := l.s
	i := s.newEvent(t, fn, a, b)
	sl := &s.slots[i]
	sl.at, sl.seq = t, s.seq
	s.seq += s.seqStep
	q := &s.lines[l.i]
	if tail := &s.slots[q.tail]; tail.gen == q.gen {
		if t < tail.at {
			panic(fmt.Sprintf("sim: line event at %v before the line's tail at %v", t, tail.at))
		}
		tail.next = i
		s.waiting++
	} else { // the line is empty: the event heads it anew
		s.heapPush(key{at: t, seq: sl.seq, slot: i})
	}
	q.tail, q.gen = i, sl.gen
}

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now Time
	seq uint64
	// seqStep is what each scheduled event adds to seq: 1, or -1 (as an
	// unsigned wrap) when the simulator reverses ties (ReverseTies).
	seqStep uint64
	// heap orders the keys of every pending event except those waiting
	// behind a line's head. While vacant is set, heap[0] is the key of
	// the event that just fired, not a pending one: the next push takes
	// its place, and settle fills it if no push came.
	heap   []key
	vacant bool
	// slots is the payload slab, indexed by key.slot and Timer.slot; pos
	// is, for each slot whose key is in the heap, the key's heap index;
	// free lists recyclable slot indices. All three are reused for the
	// life of the simulator, and slots and pos always have equal length.
	slots []slot
	pos   []int32
	free  []int32
	// waiting counts pending events that wait behind a line's head.
	waiting int
	// lines is the delay table, one entry per distinct delay asked for,
	// indexed by Line.i. It starts in lineBuf, so the first eight delays
	// cost no allocation beyond the Simulator itself, and grows eightfold:
	// a run of up to 64 delays (a 16-bottleneck mesh has about 50) costs
	// one more.
	lines   []line
	lineBuf [8]line
	rng     *rand.Rand
	seed    int64
	// executed counts events run, useful for runaway detection in tests.
	executed uint64
	// limit aborts Run after this many events (0 = unlimited).
	limit  uint64
	halted bool
	// horizon is the last instant the run in progress will reach (see
	// Horizon); between runs it is at most the clock.
	horizon Time
}

// New returns a simulator with its clock at zero and the given RNG seed.
// All randomness used by simulated components must come from Rand() so that
// runs are reproducible.
func New(seed int64) *Simulator {
	s := &Simulator{rng: rand.New(rand.NewSource(seed)), seed: seed, seqStep: 1}
	if reverseTies.Load() {
		s.seq, s.seqStep = ^uint64(0), ^uint64(0)
	}
	s.lines = s.lineBuf[:0]
	return s
}

// reverseTies is ReverseTies' setting.
var reverseTies atomic.Bool

// ReverseTies sets which of two events due at one instant the
// simulators New returns from now on run first: the one scheduled first
// (false, the default) or the one scheduled last (true): sequence
// numbers then count down. A delay line keeps its FIFO either way, since
// only its oldest event is in the heap. It reports the previous setting.
//
// Only tests set it, with nothing else running: the order of events at
// one instant is a convention of the simulator, not of the model, and a
// result that moves with it rests on that convention
// (exp.TestTieOrderRelation checks every claim under both orders). No
// run option or scenario key reaches it.
func ReverseTies(on bool) bool { return reverseTies.Swap(on) }

// NewLine returns a line that no other caller shares: its events run in
// the order AtArgs appends them, at the times given. A source whose
// events fall due in nondecreasing time order — a lazily served link's
// handoffs — keeps one such line, and costs the heap one entry while it
// has an event pending. Line(d) never returns it, and AfterArgs on it
// panics.
func (s *Simulator) NewLine() Line {
	if len(s.lines) == cap(s.lines) {
		s.lines = append(make([]line, 0, 8*cap(s.lines)), s.lines...)
	}
	s.lines = append(s.lines, line{d: -1})
	return Line{s: s, d: -1, i: int32(len(s.lines) - 1)}
}

// Line returns the handle of the simulator's delay line for d: every
// event scheduled through it runs d after the instant it is scheduled
// at. A negative d means 0. Two calls with one delay return the same
// line, and a line lives as long as the simulator, so a source asks once
// and keeps the handle (the lookup is a scan of the distinct delays).
func (s *Simulator) Line(d Time) Line {
	d = max(d, 0)
	for i := range s.lines {
		if s.lines[i].d == d {
			return Line{s: s, d: d, i: int32(i)}
		}
	}
	l := s.NewLine()
	s.lines[l.i].d, l.d = d, d
	return l
}

// initialSlots is the slab's first capacity. The slab holds every
// pending event, and the runs of the bench workloads reach 64 to 2048
// slots, so starting at 64 skips the six smallest doublings.
const initialSlots = 64

// Seed returns the seed the simulator was created with, so components
// can derive independent sub-streams (e.g. per-edge impairment RNGs)
// that stay stable under unrelated topology changes.
func (s *Simulator) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Horizon returns the last instant the run in progress promises to
// reach: RunUntil's or Coordinator.Run's end, the instant before
// RunBefore's limit, or (for Run) the end of time. No caller can look at
// the simulation between now and the horizon, so a component may settle
// now an effect that is fixed and due at or before it — the receiver
// that takes a packet off a constant-delay wire ahead of its arrival
// (netem.Wire.Carry) — and schedule only what follows. Between runs,
// and so for anything done outside an event, the horizon is at most the
// clock: nothing may be settled ahead. A Halt breaks the promise; no
// experiment run halts.
func (s *Simulator) Horizon() Time { return s.horizon }

// Rand returns the simulation's deterministic RNG.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// SetEventLimit aborts Run after n events; 0 disables the limit.
func (s *Simulator) SetEventLimit(n uint64) { s.limit = n }

// place writes k into heap position i and records i as its slot's
// position.
func (s *Simulator) place(i int, k key) {
	s.heap[i] = k
	s.pos[k.slot] = int32(i)
}

// siftUp restores the heap invariant upward from position i.
func (s *Simulator) siftUp(i int) {
	k := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := s.heap[parent]
		if !k.before(p) {
			break
		}
		s.place(i, p)
		i = parent
	}
	s.place(i, k)
}

// siftDown restores the heap invariant downward from position i. A node
// with four children finds the smallest in a two-round tournament: (c0,
// c1) and (c2, c3) are compared independently, then their winners, whose
// (at, seq) are selected in registers rather than reloaded, so a level
// waits on two compares instead of three. A partial last group is
// scanned in order.
func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	k := h[i]
	for {
		first := 4*i + 1
		var best int
		if first+4 <= n {
			c := h[first : first+4 : first+4]
			m0, m1 := c[1].less(c[0]), c[3].less(c[2])
			w0 := key{at: pick(c[0].at, c[1].at, m0), seq: pick(c[0].seq, c[1].seq, m0)}
			w1 := key{at: pick(c[2].at, c[3].at, m1), seq: pick(c[2].seq, c[3].seq, m1)}
			best = first + int(pick(m0, 2+m1, w1.less(w0)))
		} else if first < n {
			best = first
			for c := first + 1; c < n; c++ {
				best += (c - best) * int(h[c].less(h[best])) // best = c if smaller
			}
		} else {
			break
		}
		b := h[best]
		if k.before(b) {
			break
		}
		s.place(i, b)
		i = best
	}
	s.place(i, k)
}

// heapPush inserts k. A vacant root takes it with one siftDown.
func (s *Simulator) heapPush(k key) {
	if s.vacant {
		s.vacant = false
		s.heap[0] = k
		s.siftDown(0)
		return
	}
	s.heap = append(s.heap, k)
	s.siftUp(len(s.heap) - 1)
}

// settle fills a root that step left vacant and no push took: the
// fired event's key leaves the heap as a removal would have taken it.
func (s *Simulator) settle() {
	if s.vacant {
		s.vacant = false
		s.heapRemove(0)
	}
}

// next returns the time of the earliest pending event, or timeInf when
// none is pending.
func (s *Simulator) next() Time {
	if s.settle(); len(s.heap) == 0 {
		return timeInf
	}
	return s.heap[0].at
}

// heapRemove deletes the key at heap index i, preserving the invariant.
func (s *Simulator) heapRemove(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.place(i, last)
	s.siftDown(i)
	if int(s.pos[last.slot]) == i {
		s.siftUp(i)
	}
}

// newEvent stores an event's payload in a recycled or new slot.
func (s *Simulator) newEvent(t Time, fn ArgsFunc, a, b any) int32 {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.slots) == cap(s.slots) {
			s.growSlab()
		}
		// Generations start at 1 so the zero Timer and a new line never
		// match a live slot.
		s.slots = append(s.slots, slot{gen: 1, next: noSlot})
		s.pos = append(s.pos, 0)
		i = int32(len(s.slots) - 1)
	}
	sl := &s.slots[i]
	sl.fn, sl.a, sl.b = fn, a, b
	return i
}

// growSlab doubles the capacity of slots, pos and free together,
// starting at initialSlots: one allocation each per doubling, and a
// slab's capacity depends only on the most events it has held. free is
// empty when the slab grows and never holds more indices than the slab
// has slots, so freeSlot's append never reallocates.
func (s *Simulator) growSlab() {
	n := max(2*cap(s.slots), initialSlots)
	s.slots = append(make([]slot, 0, n), s.slots...)
	s.pos = append(make([]int32, 0, n), s.pos...)
	s.free = make([]int32, 0, n)
}

// freeSlot recycles slot i: it drops the callback and arg references and
// invalidates outstanding Timers and line tails that name the slot.
func (s *Simulator) freeSlot(i int32) {
	sl := &s.slots[i]
	sl.fn, sl.a, sl.b = nil, nil, nil
	sl.gen++
	s.free = append(s.free, i)
}

// schedule inserts an ordinary event at absolute time t.
func (s *Simulator) schedule(t Time, fn ArgsFunc, a, b any) Timer {
	sl := s.newEvent(t, fn, a, b)
	s.heapPush(key{at: t, seq: s.seq, slot: sl})
	s.seq += s.seqStep
	return Timer{s: s, slot: sl, gen: s.slots[sl].gen}
}

// callClosure is the event callback behind At and After: a is the
// caller's func(), which boxes into an any without allocating.
func callClosure(a, _ any) { a.(func())() }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a logic error in a component.
func (s *Simulator) At(t Time, fn func()) Timer { return s.AtArgs(t, callClosure, fn, nil) }

// After schedules fn to run d after the current time.
func (s *Simulator) After(d Time, fn func()) Timer { return s.AfterArgs(d, callClosure, fn, nil) }

// AtArgs schedules fn(a, b) at absolute time t without allocating a
// closure: fn should be a static function and a, b pointer-shaped values.
func (s *Simulator) AtArgs(t Time, fn ArgsFunc, a, b any) Timer {
	return s.schedule(t, fn, a, b)
}

// AfterArgs schedules fn(a, b) to run d after the current time; see AtArgs.
func (s *Simulator) AfterArgs(d Time, fn ArgsFunc, a, b any) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, fn, a, b)
}

// Halt stops the run loop after the current event completes.
func (s *Simulator) Halt() { s.halted = true }

// Pending reports the number of scheduled events that have not fired,
// those on lines included. Canceled events are removed eagerly and never
// counted.
func (s *Simulator) Pending() int {
	s.settle()
	return len(s.heap) + s.waiting
}

// EachPending calls fn with the two arguments of every pending event,
// those on lines included, in slab order: how an audit finds what the
// event queue holds. An At/After event's first argument is its func().
func (s *Simulator) EachPending(fn func(a, b any)) {
	for i := range s.slots {
		if sl := &s.slots[i]; sl.fn != nil {
			fn(sl.a, sl.b)
		}
	}
}

// step pops the earliest event and runs its callback. If a line
// successor waits behind it, the successor's key takes over the root in
// one siftDown instead of a remove and a push; otherwise the root is
// left vacant for the callback's first push (see heapPush and settle).
func (s *Simulator) step() {
	k := s.heap[0]
	sl := &s.slots[k.slot]
	fn, a, b := sl.fn, sl.a, sl.b
	if nx := sl.next; nx != noSlot {
		sl.next = noSlot
		succ := &s.slots[nx]
		s.heap[0] = key{at: succ.at, seq: succ.seq, slot: nx}
		s.waiting--
		s.siftDown(0)
	} else {
		s.vacant = true
	}
	s.freeSlot(k.slot)
	s.now = k.at
	s.executed++
	if s.limit != 0 && s.executed > s.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at %v", s.limit, s.now))
	}
	fn(a, b)
}

// RunUntil executes events in order until the queue is empty, the next
// event is strictly after end, or Halt is called. Unless halted, the
// clock is left at end; a halted run leaves it at the last executed
// event, because events at or before end may remain. Reports the number
// of events executed by this call. An event at math.MaxInt64, the
// largest Time, never runs: that instant means "never".
func (s *Simulator) RunUntil(end Time) uint64 {
	n := s.runTo(min(end, timeInf-1))
	if !s.halted {
		s.now = max(s.now, end)
	}
	return n
}

// RunBefore executes pending events with timestamps strictly before
// limit, leaving the clock at the last executed event — the caller owns
// final clock placement.
func (s *Simulator) RunBefore(limit Time) uint64 { return s.runTo(limit - 1) }

// runTo executes pending events up to and including horizon with the
// horizon set, then brings the horizon back to the clock. Run, RunUntil
// and RunBefore are one such stretch each; Coordinator.Run sets the
// horizon itself and runs its windows under it (window).
func (s *Simulator) runTo(horizon Time) uint64 {
	s.horizon = horizon
	n := s.window(horizon + 1)
	s.horizon = s.now
	return n
}

// window executes pending events with timestamps strictly before limit.
// This is the one event loop: it is the Coordinator's window, half-open
// because the barrier callbacks at limit run before the simulator events
// at limit.
func (s *Simulator) window(limit Time) uint64 {
	start := s.executed
	s.halted = false
	for !s.halted {
		if s.settle(); len(s.heap) == 0 || s.heap[0].at >= limit {
			break
		}
		s.step()
	}
	return s.executed - start
}

// Run executes all events until the queue drains or Halt is called,
// leaving the clock at the last executed event. Like RunUntil, it never
// runs an event at math.MaxInt64.
func (s *Simulator) Run() uint64 { return s.runTo(timeInf - 1) }
