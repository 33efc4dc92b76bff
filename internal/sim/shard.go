// Sharded execution: a Coordinator advances several independent
// Simulator instances ("shards") in bounded time windows, classic
// conservative (null-message) parallel discrete-event simulation.
//
// Each cross-shard channel (src, dst) carries a positive lookahead: the
// minimum latency any message posted by src can impose on dst. Before
// each window the coordinator collects every shard's earliest pending
// event time (its null-message lower bound: the heap top or the earliest
// message still parked in a mailbox lane towards it), closes the bounds
// under the channel graph (an idle shard may still be woken by a
// neighbor, so the bound must account for transitive wakeups), and
// derives a per-shard horizon: the earliest instant at which a
// cross-shard message could still arrive. Shards then execute events
// strictly before their horizon. No shard ever receives an event in its
// past, and progress is guaranteed because every lookahead is positive.
//
// # Workers
//
// A Run uses W = min(shards, GOMAXPROCS, NumCPU) workers, fixed when Run
// starts. Worker w owns shards w, w+W, w+2W, … for the whole Run and
// runs their windows inline, one after the other, so a shard's heap and
// slab stay in one core's cache. The goroutine that called Run is worker
// 0: between the release and the join of a window it has nothing else to
// do. Only W-1 helper goroutines exist, and with W = 1 (one shard, one
// usable core, GOMAXPROCS 1) Run is a plain loop over the shards with no
// goroutine, atomic operation or channel in it, which costs what the
// sequential simulator costs. Because W never exceeds the cores the
// process may use, a waiting worker never spins against a worker that
// needs its core.
//
// # Barrier
//
// One window is: the coordinator bumps every helper's gate (release),
// runs its own shards, then waits on its own gate until the W-1 helpers
// have bumped it (join). A gate is a counter, a parked flag and a
// 1-buffered channel on a cache line of their own. The waiter polls the
// counter for a fixed budget (spinYields × spinLoads loads, yielding the
// processor between batches), then announces parked, re-checks the
// counter, and only then blocks on the channel. A signaller bumps the
// counter and then swaps parked from true to false; whoever wins that
// swap owns the wake-up: the signaller sends a token, or the waiter
// proceeds without one. sync/atomic operations are sequentially
// consistent, so of "waiter stores parked, then loads the counter" and
// "signaller adds to the counter, then swaps parked" at least one side
// sees the other's write: no wake-up is lost, and because a token is
// sent only after a swap that the waiter then always consumes, none is
// left over. The same operations carry the data: everything the
// coordinator wrote before the release (bounds, horizons, the lane
// parity) happens-before a helper's window, and everything a helper
// wrote in its window (heaps, lanes, clocks, counters) happens-before
// the coordinator's return from the join.
//
// # Mailboxes
//
// A cross-shard event is appended to the (src, dst) lane by its
// producer, which also keeps the lane's minimum timestamp for the next
// lower-bound pass. A lane has two boxes: producers write box p during a
// window while each destination's worker, at the start of that window
// and on its own core, merges box 1-p — the previous window's mail —
// into its shards' heaps; the barrier flips p. The merge visits a
// shard's inbound lanes in source order, concatenates them and sorts
// stably by timestamp, which is (timestamp, source shard, posting
// order) — the event heap's own (time, seq) tie-break discipline.
// Every worker merges every one of its shards every window, active or
// not, so a box never holds mail from two windows. Sequence numbers are
// therefore what a drain at the barrier would have assigned: between
// the barrier and the start of a shard's next window nothing schedules
// on it, with one exception, a GlobalAt or Every callback, and the
// coordinator merges all mail serially immediately before it runs one
// (and once more when Run returns). Execution order is thus a pure
// function of configuration and seed, whatever W is.
//
// # What it buys
//
// On the 2-core bench host, bench workload mesh_shard2 (16-bottleneck
// mesh at 2 shards, 8 ms windows, 1817 of them in 16 simulated seconds)
// runs 1.3× as fast as its sequential twin. DESIGN.md "Sharded
// execution" has every number. The figure to watch is what a shard's
// events cost while both workers run over what they cost on one worker.
// BenchmarkShardBusy in internal/exp prints both. The ratio was 1.6–1.9×
// while shards wrote to shared cache lines: two Simulators 144 bytes
// apart, packets straddling lines, a flow's tally rows inside its
// sender. It is 1.25× on the mesh now that everything a shard writes
// per event owns its lines (TestShardSimulatorsOwnTheirLines and the
// layout tests of packet and netem). What remains is the cut traffic
// itself: a crossing packet's two lines and its mail item change cores.
// The ceiling is per-window event imbalance (Σmax/Σmean ≈ 1.12 at 2
// shards, so ≤ 1.78×).
package sim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"abc/internal/obs"
)

// timeInf is a sentinel "no pending event" timestamp.
const timeInf = Time(math.MaxInt64)

// cacheLine is the unit that state written by different workers is
// padded to, so that no two of them share a line. A heap object whose
// size is a multiple of it starts on a line boundary too: its size class
// is then a multiple of 64 as well, and a span of that class is cut from
// page-aligned memory.
const cacheLine = 64

// A gate waiter polls spinYields batches of spinLoads loads, yielding
// the processor after each batch, before it parks: about 300 µs on the
// bench host, two typical mesh windows. Parking and the futex wake-up
// behind it cost about 80 µs there, on the critical path, so the budget
// is sized to make parks rare (25 in 3634 waits against 1640 at a 20 µs
// budget; DESIGN.md has the sweep) while bounding what a long wait —
// a GlobalAt callback, a lopsided window — can burn.
const (
	spinYields = 1024
	spinLoads  = 128
)

// Shard is one partition of a sharded simulation: a full Simulator (its
// own 4-ary heap, slot slab, clock and RNG) advanced by its
// Coordinator in bounded windows.
type Shard struct {
	*Simulator
	id int
	c  *Coordinator

	// Written by the worker that owns the shard (see Coordinator.Busy):
	// the self-accounting counters and the reused merge buffer.
	busy, wait time.Duration
	mail       uint64
	inbox      []mailItem
	_          [2*cacheLine - 72]byte
}

// ID returns the shard's index within its coordinator.
func (sh *Shard) ID() int { return sh.id }

// Post hands an event to shard dst, to run at absolute time at. It may
// only be called while the posting shard executes a window (or during
// single-threaded setup before Run), and at must respect the registered
// lookahead for the (sh, dst) channel. fn/a/b follow AtArgs conventions.
func (sh *Shard) Post(dst int, at Time, fn ArgsFunc, a, b any) {
	sh.c.post(sh.id, dst, at, fn, a, b)
}

// mailItem is one cross-shard message parked in a lane until its
// destination's next window.
type mailItem struct {
	at   Time
	fn   ArgsFunc
	a, b any
}

// mailbox is one half of a lane: the messages posted during one window
// and the earliest of their timestamps (timeInf when empty).
type mailbox struct {
	items []mailItem
	min   Time
	_     [cacheLine - 32]byte
}

// lane buffers the messages of one (src, dst) channel. It has a single
// producer, the worker running src, which appends to box[wr]; the worker
// running dst empties box[wr^1] meanwhile, so neither needs a lock.
type lane struct{ box [2]mailbox }

// gate is where one worker waits for others: a helper for the
// coordinator's release, the coordinator for the helpers' join.
type gate struct {
	n      atomic.Uint32
	parked atomic.Bool
	wake   chan struct{}
	_      [cacheLine - 16]byte
}

// signal bumps the counter and wakes the waiter if it has parked.
func (g *gate) signal() {
	g.n.Add(1)
	if g.parked.CompareAndSwap(true, false) {
		g.wake <- struct{}{}
	}
}

// wait returns once the counter equals target: spin, then park. The
// package comment gives the argument that no wake-up is lost.
func (g *gate) wait(target uint32) {
	for {
		for i := 0; i < spinYields; i++ {
			for j := 0; j < spinLoads; j++ {
				if g.n.Load() == target {
					return
				}
			}
			runtime.Gosched()
		}
		g.parked.Store(true)
		if g.n.Load() == target && g.parked.CompareAndSwap(true, false) {
			return
		}
		<-g.wake // a signaller won the swap, or will: its token is ours
	}
}

// worker is the per-worker state of one Run. Worker 0 is the goroutine
// that called Run and waits on its gate for the join; the others are
// helpers and wait on theirs for the release.
type worker struct {
	gate
	// idleSince is when the worker finished its last window (Run's start
	// before the first); panicked holds a value recovered from a shard
	// event on a helper until the coordinator re-raises it.
	idleSince time.Time
	panicked  any
	_         [cacheLine - 40]byte
}

// globalEvent is a coordinator-level event (topology mutation, attack
// toggle, …) that must observe and mutate state across shards. It fires
// at a barrier where every shard has quiesced up to its timestamp.
type globalEvent struct {
	at Time
	fn func()
}

// ticker is a periodic barrier hook (Every): next is the instant of its
// next call.
type ticker struct {
	period, next Time
	fn           func(now Time)
}

// Coordinator owns a set of shards and advances them in bounded windows.
type Coordinator struct {
	shards []*Shard
	n      int
	// la[src*n+dst] is the minimum lookahead of the (src, dst) channel;
	// 0 means no channel exists (or none registered yet).
	la []Time
	// lanes[src*n+dst] buffers cross-shard messages; wr is the box
	// producers append to, flipped at every barrier.
	lanes   []lane
	wr      int
	globals []globalEvent
	gNext   int
	tickers []ticker
	started bool

	// Barrier state of the current Run (nil and zero between Runs):
	// joined is the join gate's target, one per helper per release; stop
	// tells released helpers to exit.
	workers []worker
	joined  uint32
	stop    bool

	// rec, when set, receives one EvHorizon event per shard per window
	// (the lookahead observability feed); rounds counts synchronization
	// windows executed, for the null-message-overhead metrics.
	rec    *obs.Recorder
	rounds uint64

	// per-round scratch, reused to keep the steady state allocation-free
	nb      []Time
	out     []Time
	horizon []Time
}

// NewCoordinator creates n shards. Every shard shares the same base seed
// so seed-derived sub-streams (e.g. per-edge impairment RNGs keyed on
// Seed()^hash(name)) are identical regardless of which shard a component
// lands on.
func NewCoordinator(seed int64, n int) *Coordinator {
	if n < 1 {
		panic("sim: coordinator needs at least one shard")
	}
	c := &Coordinator{
		n:       n,
		la:      make([]Time, n*n),
		lanes:   make([]lane, n*n),
		nb:      make([]Time, n),
		out:     make([]Time, n),
		horizon: make([]Time, n),
	}
	for i := range c.lanes {
		c.lanes[i].box[0].min, c.lanes[i].box[1].min = timeInf, timeInf
	}
	for i := 0; i < n; i++ {
		c.shards = append(c.shards, &Shard{Simulator: New(seed), id: i, c: c})
	}
	return c
}

// Shards returns the number of shards.
func (c *Coordinator) Shards() int { return c.n }

// SetTrace attaches a flight recorder: each synchronization window emits
// one EvHorizon event per shard (T = the shard's horizon, Src = shard,
// A = the shard's null-message lower bound, B = the window index).
// Tracing is passive — it never changes window boundaries or event
// order. Nil detaches.
func (c *Coordinator) SetTrace(rec *obs.Recorder) { c.rec = rec }

// Rounds reports how many synchronization windows Run has executed —
// the conservative algorithm's null-message overhead (each round is one
// lower-bound fixpoint plus a barrier).
func (c *Coordinator) Rounds() uint64 { return c.rounds }

// Busy reports the wall time shard i's worker has spent merging the
// shard's mail and executing its windows. Like Wait and Mail it is valid
// between windows (GlobalAt callbacks) and after Run.
func (c *Coordinator) Busy(i int) time.Duration { return c.shards[i].busy }

// Wait reports the wall time shard i's worker has spent between
// finishing a round's windows and starting the next round's: the barrier
// plus the coordinator's serial section (bounds, horizons, global
// events). A worker that owns several shards charges each of them its
// wait, so over a Run Wait(i) plus the Busy of all the worker's shards
// is the Run's wall time.
func (c *Coordinator) Wait(i int) time.Duration { return c.shards[i].wait }

// Mail reports how many cross-shard messages have been merged into
// destination heaps.
func (c *Coordinator) Mail() uint64 {
	var n uint64
	for _, sh := range c.shards {
		n += sh.mail
	}
	return n
}

// HorizonLag reports, for shard i, how far its most recent horizon
// trailed the round's furthest horizon — 0 when the shard runs at the
// front, large when tight lookahead holds it back. Valid between
// windows (coordinator goroutine / GlobalAt callbacks).
func (c *Coordinator) HorizonLag(i int) Time {
	max := c.horizon[0]
	for _, h := range c.horizon[1:] {
		if h > max {
			max = h
		}
	}
	return max - c.horizon[i]
}

// Shard returns shard i.
func (c *Coordinator) Shard(i int) *Shard { return c.shards[i] }

// SetLookahead registers (or tightens) the lookahead of the (src, dst)
// channel. A channel's lookahead must be the minimum latency of any
// message ever posted on it; zero or negative lookahead would let a
// message land in the destination's past, so it is rejected.
func (c *Coordinator) SetLookahead(src, dst int, d Time) {
	if d <= 0 {
		panic(fmt.Sprintf("sim: lookahead on channel %d->%d must be positive, got %v", src, dst, d))
	}
	if src == dst {
		panic("sim: lookahead is for cross-shard channels only")
	}
	if cur := c.la[src*c.n+dst]; cur == 0 || d < cur {
		c.la[src*c.n+dst] = d
	}
}

// Lookahead returns the registered lookahead for (src, dst); 0 = none.
func (c *Coordinator) Lookahead(src, dst int) Time { return c.la[src*c.n+dst] }

// GlobalAt schedules fn at absolute time t on the coordinator timeline.
// It fires at a barrier where every shard's clock has quiesced to t, so
// fn may touch any shard's components. Events at equal times run in
// registration order, before any same-instant shard event. GlobalAt
// must be called before Run.
func (c *Coordinator) GlobalAt(t Time, fn func()) {
	if c.started {
		panic("sim: GlobalAt after Run started")
	}
	if t < 0 {
		panic("sim: GlobalAt in the past")
	}
	c.globals = append(c.globals, globalEvent{at: t, fn: fn})
}

// Every calls fn at period, 2*period, … for as long as Run reaches those
// instants, at the same kind of barrier GlobalAt fires at: every shard
// has executed its events strictly before the instant and none at it,
// and every shard's clock reads the instant. At one instant the order is
// GlobalAt events, then Every hooks in registration order, then shard
// events. A hook is a reader: it costs no simulator event and no per-call
// allocation, so on one shard (no mail whose merge a barrier could move)
// a run executes the same events with or without it. Every must be
// called before Run.
func (c *Coordinator) Every(period Time, fn func(now Time)) {
	if c.started {
		panic("sim: Every after Run started")
	}
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	c.tickers = append(c.tickers, ticker{period: period, next: period, fn: fn})
}

// post appends a message to the (src, dst) lane. Before Run it schedules
// directly (setup is single-threaded).
func (c *Coordinator) post(src, dst int, at Time, fn ArgsFunc, a, b any) {
	if !c.started {
		c.shards[dst].Simulator.schedule(at, nil, fn, a, b)
		return
	}
	if src == dst {
		panic("sim: cross-shard post to own shard")
	}
	if min := c.shards[src].Simulator.now + c.la[src*c.n+dst]; at < min {
		panic(fmt.Sprintf("sim: post on channel %d->%d at %v violates lookahead (min %v)", src, dst, at, min))
	}
	box := &c.lanes[src*c.n+dst].box[c.wr]
	box.items = append(box.items, mailItem{at: at, fn: fn, a: a, b: b})
	if at < box.min {
		box.min = at
	}
}

// EachPending calls fn with the arguments of every event pending on any
// shard (Simulator.EachPending) and of every cross-shard message not yet
// merged into its destination's heap. Call it between windows or after
// Run.
func (c *Coordinator) EachPending(fn func(a, b any)) {
	for _, sh := range c.shards {
		sh.Simulator.EachPending(fn)
	}
	for i := range c.lanes {
		for j := range c.lanes[i].box {
			for _, m := range c.lanes[i].box[j].items {
				fn(m.a, m.b)
			}
		}
	}
}

// lowerBounds fills nb with each shard's earliest pending event time —
// its heap top or the earliest message the last window posted to it —
// and closes it under the channel graph into out: out[j] is a lower
// bound on the timestamp of ANY event shard j may ever execute from now
// on, even if its heap is empty and it is only woken transitively by
// neighbors. This is the Chandy-Misra null-message fixpoint, computed by
// relaxation (positive lookahead guarantees convergence in <= n passes).
func (c *Coordinator) lowerBounds() {
	rd := c.wr ^ 1
	for i, sh := range c.shards {
		t := timeInf
		if len(sh.Simulator.heap) > 0 {
			t = sh.Simulator.heap[0].at
		}
		for src := 0; src < c.n; src++ {
			if m := c.lanes[src*c.n+i].box[rd].min; m < t {
				t = m
			}
		}
		c.nb[i] = t
		c.out[i] = t
	}
	for changed := true; changed; {
		changed = false
		for src := 0; src < c.n; src++ {
			if c.out[src] == timeInf {
				continue
			}
			for dst := 0; dst < c.n; dst++ {
				d := c.la[src*c.n+dst]
				if d == 0 {
					continue
				}
				if v := c.out[src] + d; v < c.out[dst] {
					c.out[dst] = v
					changed = true
				}
			}
		}
	}
}

// merge moves the previous window's mail for dst into its heap, in
// (timestamp, source shard, posting order) order, so sequence-number
// assignment — and therefore same-instant tie-breaking — is
// deterministic. It runs on dst's worker at the start of a window, or on
// the coordinator between windows.
func (c *Coordinator) merge(dst int) {
	sh := c.shards[dst]
	rd := c.wr ^ 1
	buf := sh.inbox[:0]
	for src := 0; src < c.n; src++ {
		box := &c.lanes[src*c.n+dst].box[rd]
		if len(box.items) == 0 {
			continue
		}
		buf = append(buf, box.items...)
		clear(box.items) // drop arg references
		box.items = box.items[:0]
		box.min = timeInf
	}
	if len(buf) == 0 {
		return
	}
	// Lanes were appended in source order, each in posting order: a stable
	// sort by timestamp leaves exactly that as the tie-break.
	slices.SortStableFunc(buf, func(x, y mailItem) int { return cmp.Compare(x.at, y.at) })
	for i := range buf {
		m := &buf[i]
		sh.Simulator.schedule(m.at, nil, m.fn, m.a, m.b)
	}
	sh.mail += uint64(len(buf))
	clear(buf)
	sh.inbox = buf[:0]
}

// mergeAll is the coordinator's serial merge: before a global event may
// schedule onto a shard, and when Run returns.
func (c *Coordinator) mergeAll() {
	for dst := 0; dst < c.n; dst++ {
		c.merge(dst)
	}
}

// chargeWait adds the time worker w has been idle, up to now, to the
// Wait of every shard it owns.
func (c *Coordinator) chargeWait(w int, now time.Time) {
	idle := now.Sub(c.workers[w].idleSince)
	for i := w; i < c.n; i += len(c.workers) {
		c.shards[i].wait += idle
	}
}

// runShards is worker w's share of one window: for each shard it owns,
// merge the mail, then execute up to the horizon if anything is due.
func (c *Coordinator) runShards(w int) {
	now := time.Now()
	c.chargeWait(w, now)
	for i := w; i < c.n; i += len(c.workers) {
		sh := c.shards[i]
		c.merge(i)
		if c.nb[i] < c.horizon[i] {
			sh.Simulator.RunBefore(c.horizon[i])
		}
		t := time.Now()
		sh.busy += t.Sub(now)
		now = t
	}
	c.workers[w].idleSince = now
}

// helper is the body of worker w > 0: one runShards per release until
// the coordinator says stop. A panic out of a shard event is parked in
// the worker for the coordinator to re-raise, and the join still
// happens, so nobody waits forever.
func (c *Coordinator) helper(w int) {
	me, join := &c.workers[w].gate, &c.workers[0].gate
	for epoch := uint32(1); ; epoch++ {
		me.wait(epoch)
		if c.stop {
			join.signal()
			return
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					c.workers[w].panicked = r
				}
			}()
			c.runShards(w)
		}()
		join.signal()
	}
}

// release lets every helper run once; join returns when the helpers
// released so far have all signalled back (at once if they already had).
func (c *Coordinator) release() {
	helpers := c.workers[1:]
	c.joined += uint32(len(helpers))
	for i := range helpers {
		helpers[i].signal()
	}
}

func (c *Coordinator) join() { c.workers[0].wait(c.joined) }

// round executes one window on every worker and flips the lanes. With
// no helpers it touches no gate.
func (c *Coordinator) round() {
	helpers := c.workers[1:]
	c.release()
	c.runShards(0)
	if len(helpers) > 0 {
		c.join()
	}
	c.wr ^= 1
	for i := range helpers {
		if r := helpers[i].panicked; r != nil {
			panic(r)
		}
	}
}

// stopHelpers ends the Run's helper goroutines, whether Run returns or
// panics: it joins a window still in flight, then releases the helpers
// once more with stop set and waits until each has passed its last use
// of the coordinator.
func (c *Coordinator) stopHelpers() {
	c.join()
	c.stop = true
	c.release()
	c.join()
	c.stop = false
}

// Run advances all shards until no event at or before end remains,
// then leaves every shard clock at end (RunUntil semantics). If a shard
// event calls Halt, Run returns at the end of that window instead and
// leaves the clocks where they are. A panic out of a shard event is
// re-raised here, on the calling goroutine, whichever worker ran the
// shard. Reports the number of shard events executed.
func (c *Coordinator) Run(end Time) uint64 {
	c.started = true
	sort.SliceStable(c.globals, func(i, j int) bool { return c.globals[i].at < c.globals[j].at })
	var start uint64
	for _, sh := range c.shards {
		start += sh.Executed()
		sh.Simulator.halted = false
	}
	began := time.Now()
	c.workers = make([]worker, min(c.n, runtime.GOMAXPROCS(0), runtime.NumCPU()))
	c.joined = 0
	for w := range c.workers {
		c.workers[w].idleSince = began
		if len(c.workers) > 1 {
			c.workers[w].wake = make(chan struct{}, 1)
		}
	}
	for w := 1; w < len(c.workers); w++ {
		go c.helper(w)
	}
	defer func() {
		if len(c.workers) > 1 {
			c.stopHelpers()
		}
		c.workers = nil
		c.started = false
	}()
	halted := false
	for !halted {
		c.lowerBounds()
		allDone := true
		for _, t := range c.nb {
			if t <= end {
				allDone = false
				break
			}
		}
		// g is the next barrier instant: a GlobalAt event or an Every tick.
		g := timeInf
		if c.gNext < len(c.globals) {
			g = c.globals[c.gNext].at
		}
		for i := range c.tickers {
			g = min(g, c.tickers[i].next)
		}
		if g <= end {
			allDone = false
			fire := true
			for _, t := range c.nb {
				if t < g {
					fire = false
					break
				}
			}
			if fire {
				// Every shard has quiesced to g: put the mail where the
				// callbacks expect it, advance clocks and run all
				// coordinator events at this instant, then its hooks.
				c.mergeAll()
				for _, sh := range c.shards {
					if sh.Simulator.now < g {
						sh.Simulator.now = g
					}
				}
				for c.gNext < len(c.globals) && c.globals[c.gNext].at == g {
					c.globals[c.gNext].fn()
					c.gNext++
				}
				for i := range c.tickers {
					if tk := &c.tickers[i]; tk.next == g {
						tk.next += tk.period
						tk.fn(g)
					}
				}
				continue
			}
		}
		if allDone {
			break
		}
		// Horizon: the earliest instant a cross-shard message could still
		// reach shard i, capped by the next coordinator event and by
		// end+1 (windows are half-open, so end+1 admits events at end).
		for i := range c.shards {
			h := end + 1
			if g < h {
				h = g
			}
			for j := 0; j < c.n; j++ {
				d := c.la[j*c.n+i]
				if d == 0 || c.out[j] == timeInf {
					continue
				}
				if v := c.out[j] + d; v < h {
					h = v
				}
			}
			c.horizon[i] = h
		}
		if c.rec.Enabled(obs.CatShard) {
			for i := range c.shards {
				c.rec.Emit(int64(c.horizon[i]), obs.EvHorizon, int32(i), -1, int64(c.nb[i]), int64(c.rounds))
			}
		}
		c.rounds++
		c.round()
		for _, sh := range c.shards {
			halted = halted || sh.Simulator.halted
		}
	}
	c.mergeAll()
	finish := time.Now()
	for w := range c.workers {
		c.chargeWait(w, finish)
	}
	var total uint64
	for _, sh := range c.shards {
		if !halted && sh.Simulator.now < end {
			sh.Simulator.now = end
		}
		total += sh.Executed()
	}
	return total - start
}
