package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestTimeConversions(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d", int64(Second))
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := (250 * Microsecond).Millis(); got != 0.25 {
		t.Errorf("Millis() = %v, want 0.25", got)
	}
	if got := FromSeconds(2.5); got != 2500*Millisecond {
		t.Errorf("FromSeconds(2.5) = %v", got)
	}
	if got := FromDuration(3 * time.Millisecond); got != 3*Millisecond {
		t.Errorf("FromDuration = %v", got)
	}
	if got := (3 * Millisecond).Duration(); got != 3*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*Millisecond, func() { got = append(got, 3) })
	s.At(10*Millisecond, func() { got = append(got, 1) })
	s.At(20*Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 30*Millisecond {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestSchedulingInsideEvents(t *testing.T) {
	s := New(1)
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 100 {
			s.After(Millisecond, step)
		}
	}
	s.After(0, step)
	s.Run()
	if depth != 100 {
		t.Errorf("depth = %d", depth)
	}
	if s.Now() != 99*Millisecond {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(5*Millisecond, func() {})
	})
	s.Run()
}

func TestRunUntilStopsAndAdvancesClock(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(10*Millisecond, func() { ran++ })
	s.At(30*Millisecond, func() { ran++ })
	n := s.RunUntil(20 * Millisecond)
	if n != 1 || ran != 1 {
		t.Errorf("ran %d events, counted %d", n, ran)
	}
	if s.Now() != 20*Millisecond {
		t.Errorf("clock = %v, want 20ms", s.Now())
	}
	s.RunUntil(40 * Millisecond)
	if ran != 2 {
		t.Errorf("second event not run")
	}
	// The largest end runs what is left without overflowing.
	s.At(50*Millisecond, func() { ran++ })
	if n := s.RunUntil(math.MaxInt64); n != 1 || ran != 3 || s.Now() != math.MaxInt64 {
		t.Errorf("RunUntil(MaxInt64) ran %d events (%d in all), clock %v", n, ran, s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	timer := s.At(10*Millisecond, func() { fired = true })
	if !timer.Stop() {
		t.Error("Stop on pending timer should report true")
	}
	if timer.Stop() {
		t.Error("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Error("canceled timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	timer := s.At(Millisecond, func() {})
	s.Run()
	if timer.Stop() {
		t.Error("Stop after firing should report false")
	}
}

func TestHalt(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(Millisecond, func() { ran++; s.Halt() })
	s.At(2*Millisecond, func() { ran++ })
	s.Run()
	if ran != 1 {
		t.Errorf("ran = %d after Halt", ran)
	}
	// Run can resume afterwards.
	s.Run()
	if ran != 2 {
		t.Errorf("ran = %d after resume", ran)
	}
}

func TestEventLimit(t *testing.T) {
	s := New(1)
	s.SetEventLimit(10)
	var loop func()
	loop = func() { s.After(Millisecond, loop) }
	s.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("expected event-limit panic")
		}
	}()
	s.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(42)
		var times []Time
		var jitter func()
		jitter = func() {
			times = append(times, s.Now())
			if len(times) < 50 {
				d := Time(s.Rand().Int63n(int64(10 * Millisecond)))
				s.After(d, jitter)
			}
		}
		s.After(0, jitter)
		s.Run()
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHeapOrderingProperty verifies the event queue is a total order over
// random schedules: execution times must be non-decreasing.
func TestHeapOrderingProperty(t *testing.T) {
	f := func(seed int64, delaysRaw []uint32) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		s := New(seed)
		rng := rand.New(rand.NewSource(seed))
		var last Time = -1
		ok := true
		check := func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		}
		for _, d := range delaysRaw {
			s.At(Time(d%1_000_000)*Microsecond, check)
		}
		// A few nested schedulings too.
		s.At(Time(rng.Int63n(int64(Second))), func() {
			check()
			s.After(Time(rng.Int63n(int64(Millisecond))), check)
		})
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// perm4 returns the p-th (0 ≤ p < 24) ordering of 0, 1, 2, 3.
func perm4(p int) [4]int {
	rest := []int{0, 1, 2, 3}
	var out [4]int
	for i, f := range [4]int{6, 2, 1, 1} {
		j := p / f
		p %= f
		out[i] = rest[j]
		rest = append(rest[:j], rest[j+1:]...)
	}
	return out
}

// TestSiftDownTieOrder pins siftDown's choice of the smallest child. A
// root with four children that share its instant is replaced by its
// line successor, with the children dealt to heap positions 1–4 in each
// of the 24 seq orders; then heaps of 2–9 keys on three instants, which
// cover every size of partial last group, are drained. Every pop must
// come in (at, seq) order with the heap and every key's position intact.
func TestSiftDownTieOrder(t *testing.T) {
	for p := 0; p < 24; p++ {
		s := New(1)
		var got []int
		rec := func(a, _ any) { got = append(got, *a.(*int)); checkHeap(t, s) }
		ids := []int{0, 1, 2, 3, 4, 5}
		l := s.Line(Millisecond)
		l.AfterArgs(rec, &ids[0], nil)
		for j := 1; j <= 4; j++ {
			s.AfterArgs(Millisecond, rec, &ids[j], nil)
		}
		l.AfterArgs(rec, &ids[5], nil) // waits behind the root
		children := [4]key(s.heap[1:5])
		order := perm4(p)
		for j, o := range order {
			s.place(1+j, children[o])
		}
		checkHeap(t, s)
		s.Run()
		if !slices.Equal(got, ids) {
			t.Fatalf("children in seq order %v popped as %v, want %v", order, got, ids)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 2; n <= 9; n++ {
		for trial := 0; trial < 200; trial++ {
			s := New(1)
			var got []int
			rec := func(a, _ any) { got = append(got, *a.(*int)); checkHeap(t, s) }
			ids := make([]int, n)
			at := make([]Time, n)
			for j := range ids {
				ids[j], at[j] = j, Time(rng.Intn(3))*Millisecond
				s.AtArgs(at[j], rec, &ids[j], nil) // seq j
			}
			want := slices.Clone(ids)
			slices.SortStableFunc(want, func(x, y int) int { return cmp.Compare(at[x], at[y]) })
			s.Run()
			if !slices.Equal(got, want) {
				t.Fatalf("%d keys at %v popped as %v, want %v", n, at, got, want)
			}
		}
	}
}

func TestPendingAndExecuted(t *testing.T) {
	s := New(1)
	s.At(Millisecond, func() {})
	s.At(2*Millisecond, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d", s.Pending())
	}
	// EachPending visits every pending event, At ones included: an
	// At event's first argument is its closure.
	visited := 0
	s.EachPending(func(a, b any) {
		if _, ok := a.(func()); ok && b == nil {
			visited++
		}
	})
	if visited != 2 {
		t.Errorf("EachPending visited %d of the 2 At events", visited)
	}
	s.Run()
	if s.Executed() != 2 {
		t.Errorf("Executed = %d", s.Executed())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after run = %d", s.Pending())
	}
}

// TestTimerStopEagerRemoval is the tombstone-leak regression test: a
// long-lived simulation that schedules and cancels many timers (e.g.
// retransmission timers) must not grow its event queue. Before eager
// removal, canceled events lingered until their deadline and Pending()
// counted them.
func TestTimerStopEagerRemoval(t *testing.T) {
	s := New(1)
	const n = 100_000
	for i := 0; i < n; i++ {
		timer := s.At(Time(i+1)*Second, func() { t.Error("canceled event fired") })
		if !timer.Stop() {
			t.Fatalf("Stop %d reported false", i)
		}
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after canceling all %d timers, want 0", got, n)
	}
	if s.Run() != 0 {
		t.Error("Run executed canceled events")
	}
}

// TestTimerStopInterleaved cancels a random subset and checks the
// survivors run in order with the canceled ones truly gone.
func TestTimerStopInterleaved(t *testing.T) {
	s := New(7)
	rng := rand.New(rand.NewSource(99))
	var want []Time
	var got []Time
	timers := make([]Timer, 0, 1000)
	ats := make([]Time, 0, 1000)
	for i := 0; i < 1000; i++ {
		at := Time(rng.Int63n(int64(Second)))
		timers = append(timers, s.At(at, func() { got = append(got, s.Now()) }))
		ats = append(ats, at)
	}
	for i := range timers {
		if rng.Intn(2) == 0 {
			if !timers[i].Stop() {
				t.Fatalf("Stop %d reported false", i)
			}
			ats[i] = -1
		}
	}
	for _, at := range ats {
		if at >= 0 {
			want = append(want, at)
		}
	}
	if s.Pending() != len(want) {
		t.Fatalf("Pending() = %d, want %d", s.Pending(), len(want))
	}
	s.Run()
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	last := Time(-1)
	for _, at := range got {
		if at < last {
			t.Fatalf("out of order execution at %v after %v", at, last)
		}
		last = at
	}
}

// TestTimerSlotReuseDoesNotCrossCancel checks that a Timer kept after its
// event fired cannot cancel an unrelated event that recycled the slot.
func TestTimerSlotReuseDoesNotCrossCancel(t *testing.T) {
	s := New(1)
	old := s.At(Millisecond, func() {})
	s.Run() // fires; slot freed
	fired := false
	s.At(2*Millisecond, func() { fired = true })
	if old.Stop() {
		t.Error("stale Timer canceled a recycled slot's event")
	}
	s.Run()
	if !fired {
		t.Error("second event did not fire")
	}
}

// TestZeroTimerStop: the zero Timer is inert.
func TestZeroTimerStop(t *testing.T) {
	var timer Timer
	if timer.Stop() {
		t.Error("zero Timer Stop reported true")
	}
}

// TestScheduleSteadyStateAllocs verifies the event core recycles its heap
// and slot storage: scheduling and draining events in steady state must
// not allocate (the static callback carries pointer-shaped args).
func TestScheduleSteadyStateAllocs(t *testing.T) {
	s := New(1)
	ping := func(a, b any) {}
	// Warm up the heap, slot table and free list.
	for i := 0; i < 1024; i++ {
		s.AfterArgs(Time(i)*Microsecond, ping, s, nil)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.AfterArgs(Time(i)*Microsecond, ping, s, nil)
		}
		for i := 0; i < 32; i++ {
			s.AfterArgs(Time(i)*Microsecond, ping, s, nil).Stop()
		}
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule/cancel/run allocated %.1f times per run, want 0", allocs)
	}

	// At and After box a prebuilt closure into the slot: no allocation
	// either.
	noop := func() {}
	allocs = testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			s.At(s.Now()+Time(i)*Microsecond, noop)
			s.After(Time(i)*Microsecond, noop)
		}
		s.After(Microsecond, noop).Stop()
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("scheduling a prebuilt closure through At/After allocated %.1f times per run, want 0", allocs)
	}
}

// TestFirstDrainAllocs: the free list grows with the slab, so the first
// drain of a fresh simulator, which frees every slot it ever took,
// allocates nothing.
func TestFirstDrainAllocs(t *testing.T) {
	const pending, runs = 4096, 10
	ping := func(a, b any) {}
	// AllocsPerRun calls its function once more than runs, to warm up.
	sims := make([]*Simulator, runs+1)
	for i := range sims {
		sims[i] = New(1)
		for j := 0; j < pending; j++ {
			sims[i].AfterArgs(Time(j)*Microsecond, ping, nil, nil)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		s := sims[0]
		sims = sims[1:]
		if n := s.Run(); n != pending {
			t.Fatalf("drained %d events, want %d", n, pending)
		}
	})
	if allocs > 0 {
		t.Errorf("draining %d events from a fresh simulator allocated %.1f times, want 0", pending, allocs)
	}
}

// TestSlotIsOneLine: an event's slab slot (callback, two arguments, line
// key and link, generation) fills exactly one 64-byte cache line.
func TestSlotIsOneLine(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size != 64 {
		t.Errorf("sizeof(slot) = %d, want one 64-byte line", size)
	}
}
