package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestCoordinatorPingPong bounces a message between two shards with 5ms
// lookahead each way and checks both orderings and final clocks.
func TestCoordinatorPingPong(t *testing.T) {
	c := NewCoordinator(1, 2)
	c.SetLookahead(0, 1, 5*Millisecond)
	c.SetLookahead(1, 0, 5*Millisecond)
	var log []string
	const hops = 10
	var bounce ArgsFunc
	bounce = func(a, b any) {
		sh := a.(*Shard)
		n := b.(*int)
		log = append(log, fmt.Sprintf("%d@%v", sh.ID(), sh.Now()))
		if *n++; *n >= hops {
			return
		}
		peer := 1 - sh.ID()
		sh.Post(peer, sh.Now()+5*Millisecond, bounce, c.Shard(peer), n)
	}
	n := 0
	c.Shard(0).AtArgs(0, bounce, c.Shard(0), &n)
	c.Run(100 * Millisecond)
	if n != hops {
		t.Fatalf("executed %d hops, want %d", n, hops)
	}
	for i, entry := range log {
		want := fmt.Sprintf("%d@%v", i%2, Time(i*5)*Millisecond)
		if entry != want {
			t.Fatalf("hop %d = %q, want %q", i, entry, want)
		}
	}
	for i := 0; i < 2; i++ {
		if now := c.Shard(i).Now(); now != 100*Millisecond {
			t.Fatalf("shard %d clock %v, want 100ms", i, now)
		}
	}
}

// TestCoordinatorIdleShardWakeup pins the transitive lower-bound rule: a
// chain 0 -> 1 -> 2 where shard 1 starts idle must not let shard 2 run
// into the future that shard 1 will soon occupy on shard 0's behalf.
func TestCoordinatorIdleShardWakeup(t *testing.T) {
	c := NewCoordinator(1, 3)
	c.SetLookahead(0, 1, 1*Millisecond)
	c.SetLookahead(1, 2, 1*Millisecond)
	var arrived []Time
	deliver2 := ArgsFunc(func(a, b any) {
		arrived = append(arrived, c.Shard(2).Now())
	})
	relay1 := ArgsFunc(func(a, b any) {
		c.Shard(1).Post(2, c.Shard(1).Now()+1*Millisecond, deliver2, nil, nil)
	})
	// Shard 2 has a dense local schedule; shard 1 is empty until shard 0
	// relays through it.
	for i := Time(1); i <= 20; i++ {
		c.Shard(2).At(i*Millisecond, func() {})
	}
	c.Shard(0).AtArgs(3*Millisecond, func(a, b any) {
		c.Shard(0).Post(1, 4*Millisecond, relay1, nil, nil)
	}, nil, nil)
	c.Run(20 * Millisecond)
	if len(arrived) != 1 || arrived[0] != 5*Millisecond {
		t.Fatalf("arrivals %v, want [5ms]", arrived)
	}
}

// TestCoordinatorGlobalEvents pins the barrier contract of GlobalAt and
// Every: callbacks run with every shard quiesced strictly before the
// instant and every clock reading it; at one instant the order is
// timeline events in registration order, then hooks in registration
// order, then shard events; a hook fires at period, 2*period, … up to
// and including the end of the Run, once each, and carries on across
// Runs — at any shard and worker count.
func TestCoordinatorGlobalEvents(t *testing.T) {
	const period = 4 * Millisecond
	for _, n := range []int{1, 3} {
		for _, procs := range []int{1, 2, 4} {
			c := NewCoordinator(1, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j {
						c.SetLookahead(i, j, Millisecond)
					}
				}
			}
			var order []string
			// Workers run shard events concurrently: each notes, in a slot
			// of its own, how much of the barrier log it could already see.
			seen := make([]int, n)
			for i := 0; i < n; i++ {
				i := i
				c.Shard(i).At(8*Millisecond, func() { seen[i] = len(order) })
			}
			at := func(what string, now Time) {
				for i := 0; i < n; i++ {
					if got := c.Shard(i).Now(); got != now {
						t.Errorf("shards=%d procs=%d: %s ran with shard %d at %v, want %v", n, procs, what, i, got, now)
					}
				}
				order = append(order, fmt.Sprintf("%s@%d", what, now/Millisecond))
			}
			c.GlobalAt(8*Millisecond, func() { at("globalA", 8*Millisecond) })
			c.Every(period, func(now Time) { at("hookA", now) })
			c.GlobalAt(8*Millisecond, func() { at("globalB", 8*Millisecond) })
			c.GlobalAt(5*Millisecond, func() { at("globalEarly", 5*Millisecond) })
			c.Every(2*period, func(now Time) { at("hookB", now) })
			withProcs(procs, func() {
				c.Run(22 * Millisecond) // ends between two ticks
				c.Run(24 * Millisecond) // ends on one
			})
			want := []string{
				"hookA@4", "globalEarly@5",
				"globalA@8", "globalB@8", "hookA@8", "hookB@8",
				"hookA@12", "hookA@16", "hookB@16", "hookA@20", "hookA@24", "hookB@24",
			}
			if !slices.Equal(order, want) {
				t.Fatalf("shards=%d procs=%d: order %v, want %v", n, procs, order, want)
			}
			for i, got := range seen {
				if got != 6 {
					t.Errorf("shards=%d procs=%d: shard %d's event at 8ms ran after %d barrier callbacks, want all 6 up to that instant", n, procs, i, got)
				}
			}
		}
	}

	// Like GlobalAt, Every is set-up only: registering from inside a Run
	// is a bug, not a request to start late.
	c := NewCoordinator(1, 1)
	c.Every(Millisecond, func(Time) { c.Every(Millisecond, func(Time) {}) })
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Every after Run started") {
			t.Errorf("Every from inside Run panicked with %q, want the after-Run message", msg)
		}
	}()
	c.Run(Second)
}

// TestCoordinatorLookaheadValidation pins the safety contracts: no
// non-positive lookahead, no post below the channel's lookahead.
func TestCoordinatorLookaheadValidation(t *testing.T) {
	c := NewCoordinator(1, 2)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero lookahead", func() { c.SetLookahead(0, 1, 0) })
	mustPanic("negative lookahead", func() { c.SetLookahead(0, 1, -Millisecond) })
	mustPanic("self lookahead", func() { c.SetLookahead(1, 1, Millisecond) })

	c.SetLookahead(0, 1, 5*Millisecond)
	nop := ArgsFunc(func(a, b any) {})
	c.Shard(0).AtArgs(0, func(a, b any) {
		mustPanic("post below lookahead", func() {
			c.Shard(0).Post(1, c.Shard(0).Now()+Millisecond, nop, nil, nil)
		})
	}, nil, nil)
	c.Run(Millisecond)
}

// TestCoordinatorDeterminism runs the same two-shard workload twice and
// compares execution traces exactly.
func TestCoordinatorDeterminism(t *testing.T) {
	run := func() []string {
		c := NewCoordinator(7, 2)
		c.SetLookahead(0, 1, 2*Millisecond)
		c.SetLookahead(1, 0, 3*Millisecond)
		// Traces are per shard: windows run concurrently, and a shared
		// slice would both race and record scheduler-dependent order.
		traces := [2][]string{}
		var chat ArgsFunc
		chat = func(a, b any) {
			sh := a.(*Shard)
			depth := b.(*int)
			id := sh.ID()
			traces[id] = append(traces[id], fmt.Sprintf("%d@%v#%d", id, sh.Now(), *depth))
			if *depth <= 0 {
				return
			}
			d := *depth - 1
			peer := 1 - id
			la := Time(2+id) * Millisecond // channel (id -> peer) lookahead
			sh.Post(peer, sh.Now()+la, chat, sh.c.Shard(peer), &d)
			sh.After(Millisecond, func() { traces[id] = append(traces[id], fmt.Sprintf("%d-local", id)) })
		}
		for i := 0; i < 3; i++ {
			d := 4
			c.Shard(i%2).AtArgs(Time(i)*Millisecond, chat, c.Shard(i%2), &d)
		}
		c.Run(60 * Millisecond)
		return append(append([]string{}, traces[0]...), traces[1]...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// settleGoroutines waits for helper goroutines that have passed their
// last barrier to finish exiting, and fails if the count stays above
// want: a worker left behind by Run.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// withProcs runs fn under the given GOMAXPROCS and restores the old
// value.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// chatter is a randomised fan-out model over n shards: tokens hop
// between neighbours on a two-way ring with delays quantised to one
// tick, so cross posts from different sources tie at the same instant
// all the time; the last shard starts idle and is only woken
// transitively; global events schedule onto every shard mid-run. Every
// decision draws from the executing shard's RNG, so the per-shard logs
// depend on execution order and nothing else.
type chatter struct {
	c    *Coordinator
	logs [][]string
}

// token is one hop's argument: where it executes and what it carries.
type token struct {
	sh      *Shard
	id, ttl int
}

// tick is the model's time quantum.
const tick = 100 * Microsecond

func chatterHop(a, b any) {
	m, tk := a.(*chatter), b.(*token)
	sh, id := tk.sh, tk.sh.ID()
	m.logs[id] = append(m.logs[id], fmt.Sprintf("%v t%d/%d", sh.Now(), tk.id, tk.ttl))
	if tk.ttl == 0 {
		return
	}
	n, rng := m.c.Shards(), sh.Rand()
	for k := rng.Intn(40) / 39; k >= 0; k-- { // one successor, rarely two
		next := &token{sh: sh, id: tk.id*2 + k, ttl: tk.ttl - 1}
		if n == 1 || rng.Intn(4) == 0 {
			sh.AfterArgs(Time(rng.Intn(3))*tick, chatterHop, m, next)
			continue
		}
		dst := (id + 1 + (n-2)*rng.Intn(2)) % n // a ring neighbour, either way
		next.sh = m.c.Shard(dst)
		at := sh.Now() + m.c.Lookahead(id, dst) + Time(rng.Intn(2))*tick
		sh.Post(dst, at, chatterHop, m, next)
	}
}

// runChatter builds the model on n shards and runs it; probe, if set,
// is called from inside every global event.
func runChatter(n int, seed int64, probe func()) *chatter {
	m := &chatter{c: NewCoordinator(seed, n), logs: make([][]string, n)}
	c := m.c
	for i := 0; i < n && n > 1; i++ {
		c.SetLookahead(i, (i+1)%n, 2*tick)
		c.SetLookahead(i, (i+n-1)%n, 3*tick)
	}
	for i := 0; i == 0 || i < n-1; i++ {
		c.Shard(i).AtArgs(Time(i)*tick, chatterHop, m, &token{sh: c.Shard(i), id: i + 1, ttl: 150})
	}
	for k := 1; k <= 4; k++ {
		k, at := k, Time(k)*30*tick
		c.GlobalAt(at, func() {
			for i := 0; i < n; i++ {
				c.Shard(i).AtArgs(at, chatterHop, m, &token{sh: c.Shard(i), id: 100 * k, ttl: 20})
			}
			if probe != nil {
				probe()
			}
		})
	}
	c.Run(100 * Millisecond)
	return m
}

// sameExecution fails the test unless got executed exactly what want
// did: windows, mail, per-shard event counts and per-shard order.
func sameExecution(t *testing.T, what string, got, want *chatter) {
	t.Helper()
	if g, w := got.c.Rounds(), want.c.Rounds(); g != w {
		t.Errorf("%s: %d rounds, want %d", what, g, w)
	}
	if g, w := got.c.Mail(), want.c.Mail(); g != w {
		t.Errorf("%s: %d mail items, want %d", what, g, w)
	}
	for i := range want.logs {
		if g, w := got.c.Shard(i).Executed(), want.c.Shard(i).Executed(); g != w {
			t.Errorf("%s: shard %d executed %d events, want %d", what, i, g, w)
		}
		if !slices.Equal(got.logs[i], want.logs[i]) {
			t.Errorf("%s: shard %d execution order diverges", what, i)
		}
	}
}

// TestCoordinatorWorkerCountInvariance: the execution order of every
// shard, the event counts and the number of windows must not depend on
// how many workers run the shards — one inline loop at GOMAXPROCS 1,
// helpers behind the spin-then-park barrier above it.
func TestCoordinatorWorkerCountInvariance(t *testing.T) {
	base := runtime.NumGoroutine()
	for n := 1; n <= 4; n++ {
		var ref *chatter
		for _, procs := range []int{1, 2, 4} {
			var m *chatter
			withProcs(procs, func() { m = runChatter(n, int64(40+n), nil) })
			settleGoroutines(t, base)
			if ref != nil {
				sameExecution(t, fmt.Sprintf("shards=%d procs=%d", n, procs), m, ref)
				continue
			}
			ref = m
			var events uint64
			for i := 0; i < n; i++ {
				events += m.c.Shard(i).Executed()
			}
			t.Logf("shards=%d: %d events, %d mail, %d rounds", n, events, m.c.Mail(), m.c.Rounds())
			if events < 500 || (n > 1 && (m.c.Mail() < 500 || m.c.Rounds() < 150)) {
				t.Fatalf("shards=%d: model too quiet: %d events, %d mail", n, events, m.c.Mail())
			}
			if len(m.logs[n-1]) == 0 {
				t.Fatalf("shards=%d: the idle shard was never woken", n)
			}
		}
	}
}

// TestCoordinatorInlineOnOneProc: with one usable processor there is
// nothing to run a helper on, so Run starts none — it is a plain loop —
// and still produces what four processors produce.
func TestCoordinatorInlineOnOneProc(t *testing.T) {
	base := runtime.NumGoroutine()
	var want *chatter
	withProcs(4, func() { want = runChatter(4, 9, nil) })
	settleGoroutines(t, base)
	withProcs(1, func() {
		probes := 0
		got := runChatter(4, 9, func() {
			probes++
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines inside Run at GOMAXPROCS 1, %d before it: a helper was started", n, base)
			}
		})
		if probes == 0 {
			t.Fatal("the probe never ran")
		}
		sameExecution(t, "inline", got, want)
	})
}

// TestCoordinatorPanicReachesCaller: a panic out of a shard event — here
// the event limit, on a shard a helper runs when there is a second
// processor — must surface on the goroutine that called Run, carrying
// the original value, with every helper stopped.
func TestCoordinatorPanicReachesCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	withProcs(2, func() {
		c := NewCoordinator(1, 2)
		c.SetLookahead(0, 1, Millisecond)
		c.SetLookahead(1, 0, Millisecond)
		for i := 0; i < 2; i++ {
			sh := c.Shard(i)
			sh.Every(Millisecond, func() bool { return true })
		}
		c.Shard(1).SetEventLimit(25)
		var got any
		func() {
			defer func() { got = recover() }()
			c.Run(Second)
		}()
		msg, _ := got.(string)
		if !strings.Contains(msg, "event limit 25 exceeded") {
			t.Fatalf("Run panicked with %v, want shard 1's event-limit message", got)
		}
	})
	settleGoroutines(t, base)
}

// TestCoordinatorHalt: Halt from a shard event ends Run at the next
// barrier with the clocks left where they are, and a second Run picks
// up every event the first one left.
func TestCoordinatorHalt(t *testing.T) {
	c := NewCoordinator(1, 2)
	c.SetLookahead(0, 1, Millisecond)
	c.SetLookahead(1, 0, Millisecond)
	ticks := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		c.Shard(i).Every(Millisecond, func() bool { ticks[i]++; return true })
	}
	c.Shard(1).At(10*Millisecond+Microsecond, c.Shard(1).Halt)
	const end = 50 * Millisecond
	first := c.Run(end)
	if now := c.Shard(1).Now(); now != 10*Millisecond+Microsecond {
		t.Errorf("halting shard's clock at %v, want the halting event's time", now)
	}
	if now := c.Shard(0).Now(); now >= end || ticks[0] >= 50 {
		t.Errorf("shard 0 ran on to %v (%d ticks) after shard 1 halted", now, ticks[0])
	}
	second := c.Run(end)
	if first+second != 101 || ticks != [2]int{50, 50} {
		t.Errorf("executed %d+%d events, ticks %v; want 101 in all and 50 ticks each", first, second, ticks)
	}
	for i := 0; i < 2; i++ {
		if now := c.Shard(i).Now(); now != end {
			t.Errorf("shard %d clock %v after the resumed Run, want %v", i, now, end)
		}
	}
}

// TestCoordinatorMergeLargeUnsortedLane: a lane that arrives in
// descending timestamp order — two cut edges of different delay do
// that — must merge in (timestamp, posting order) order, and in n log n.
func TestCoordinatorMergeLargeUnsortedLane(t *testing.T) {
	const items = 50000
	c := NewCoordinator(1, 2)
	c.SetLookahead(0, 1, Millisecond)
	var order []int
	record := ArgsFunc(func(a, b any) { order = append(order, *b.(*int)) })
	c.Shard(0).At(0, func() {
		for i := 0; i < items; i++ {
			i := i
			// Pairs share a timestamp; timestamps fall as i rises.
			c.Shard(0).Post(1, Millisecond+Time((items-1-i)/2), record, nil, &i)
		}
	})
	start := time.Now()
	c.Run(Second)
	if d := time.Since(start); d > time.Second {
		t.Errorf("merging %d items took %v", items, d)
	}
	if len(order) != items || c.Mail() != items {
		t.Fatalf("delivered %d items, merged %d, want %d", len(order), c.Mail(), items)
	}
	for k, i := range order {
		// Descending pairs, each pair in posting order: 49998 49999 49996 49997 …
		if want := items - 2 - k + 2*(k%2); i != want {
			t.Fatalf("delivery %d is item %d, want %d", k, i, want)
		}
	}
}

// TestCoordinatorSelfAccounting: a worker is either executing its
// shards' windows or waiting for the next one, so neither clock may
// stand still and together they cannot exceed the run's wall time.
func TestCoordinatorSelfAccounting(t *testing.T) {
	start := time.Now()
	m := runChatter(2, 5, nil)
	wall := time.Since(start)
	workers := min(2, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for w := 0; w < workers; w++ {
		sum := m.c.Wait(w)
		for i := w; i < 2; i += workers {
			if m.c.Busy(i) <= 0 || m.c.Wait(i) <= 0 {
				t.Errorf("shard %d: busy %v, wait %v, want both positive", i, m.c.Busy(i), m.c.Wait(i))
			}
			sum += m.c.Busy(i)
		}
		if sum > wall {
			t.Errorf("worker %d: busy+wait = %v exceeds the run's %v", w, sum, wall)
		}
	}
}

// TestCoordinatorPadding pins the layout the false-sharing argument
// rests on: what different workers write sits on different cache lines.
func TestCoordinatorPadding(t *testing.T) {
	for name, size := range map[string]uintptr{
		"mailbox":   unsafe.Sizeof(mailbox{}),
		"gate":      unsafe.Sizeof(gate{}),
		"worker":    unsafe.Sizeof(worker{}),
		"Shard":     unsafe.Sizeof(Shard{}),
		"Simulator": unsafe.Sizeof(Simulator{}),
	} {
		if size%cacheLine != 0 {
			t.Errorf("sizeof(%s) = %d, not a multiple of the %d-byte cache line", name, size, cacheLine)
		}
	}
}

// TestShardSimulatorsOwnTheirLines: the simulators of a coordinator's
// shards, which their workers write on every event, share no cache line
// with each other.
func TestShardSimulatorsOwnTheirLines(t *testing.T) {
	c := NewCoordinator(1, 4)
	lines := func(s *Simulator) (first, last uintptr) {
		at := uintptr(unsafe.Pointer(s))
		return at / cacheLine, (at + unsafe.Sizeof(*s) - 1) / cacheLine
	}
	for i := 0; i < c.Shards(); i++ {
		for j := i + 1; j < c.Shards(); j++ {
			fi, li := lines(c.Shard(i).Simulator)
			fj, lj := lines(c.Shard(j).Simulator)
			if fi <= lj && fj <= li {
				t.Errorf("shards %d and %d: simulators at %p and %p share a %d-byte line",
					i, j, c.Shard(i).Simulator, c.Shard(j).Simulator, cacheLine)
			}
		}
	}
}
