// Sharded execution: a Coordinator advances several independent
// Simulator instances ("shards") in bounded time windows, classic
// conservative (null-message) parallel discrete-event simulation.
//
// Each cross-shard channel (src, dst) carries a positive lookahead: the
// minimum latency any message posted by src can impose on dst. Before
// each window the coordinator collects every shard's earliest pending
// event time (its null-message lower bound), closes the bounds under the
// channel graph (an idle shard may still be woken by a neighbor, so the
// bound must account for transitive wakeups), and derives a per-shard
// horizon: the earliest instant at which a cross-shard message could
// still arrive. Shards then execute events strictly before their horizon
// in parallel, one goroutine per shard, and hand cross-shard events to
// per-(src,dst) mailbox lanes. At the barrier the coordinator drains the
// lanes into the destination heaps in (timestamp, source shard, posting
// order) order — the same tie-break discipline as the event heap's
// (time, seq) rule — so sequence numbers, and therefore execution order,
// are a pure function of the configuration and seed. No shard ever
// receives an event in its past, and progress is guaranteed because
// every lookahead is positive.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"abc/internal/obs"
)

// timeInf is a sentinel "no pending event" timestamp.
const timeInf = Time(math.MaxInt64)

// Shard is one partition of a sharded simulation: a full Simulator (its
// own 4-ary heap, slot slab, clock and RNG) advanced by its
// Coordinator in bounded windows.
type Shard struct {
	*Simulator
	id int
	c  *Coordinator
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

// mailItem is one cross-shard message parked in a lane until the next
// barrier.
type mailItem struct {
	at   Time
	fn   ArgsFunc
	a, b any
}

// globalEvent is a coordinator-level event (topology mutation, attack
// toggle, …) that must observe and mutate state across shards. It fires
// at a barrier where every shard has quiesced up to its timestamp.
type globalEvent struct {
	at Time
	fn func()
}

// Coordinator owns a set of shards and advances them in bounded windows.
type Coordinator struct {
	shards []*Shard
	n      int
	// la[src*n+dst] is the minimum lookahead of the (src, dst) channel;
	// 0 means no channel exists (or none registered yet).
	la []Time
	// lanes[src*n+dst] buffers cross-shard messages during a window.
	// Each lane has a single producer (the src shard's goroutine), so
	// appends need no locks; the coordinator drains them at barriers.
	lanes   [][]mailItem
	globals []globalEvent
	gNext   int
	started bool

	work []chan Time
	wg   sync.WaitGroup

	// rec, when set, receives one EvHorizon event per shard per window
	// (the lookahead observability feed); rounds counts synchronization
	// windows executed, for the null-message-overhead metrics.
	rec    *obs.Recorder
	rounds uint64

	// per-round scratch, reused to keep the steady state allocation-free
	nb      []Time
	out     []Time
	horizon []Time
	inbox   []mailItem
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
		lanes:   make([][]mailItem, n*n),
		nb:      make([]Time, n),
		out:     make([]Time, n),
		horizon: make([]Time, n),
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
// registration order, before any same-instant shard event — mirroring
// the sequential harness, where timeline events are scheduled at compile
// time and hold lower sequence numbers than runtime packet events.
// GlobalAt must be called before Run.
func (c *Coordinator) GlobalAt(t Time, fn func()) {
	if c.started {
		panic("sim: GlobalAt after Run started")
	}
	if t < 0 {
		panic("sim: GlobalAt in the past")
	}
	c.globals = append(c.globals, globalEvent{at: t, fn: fn})
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
	li := src*c.n + dst
	c.lanes[li] = append(c.lanes[li], mailItem{at: at, fn: fn, a: a, b: b})
}

// lowerBounds fills nb with each shard's earliest pending event time and
// closes it under the channel graph into out: out[j] is a lower bound on
// the timestamp of ANY event shard j may ever execute from now on, even
// if its heap is empty and it is only woken transitively by neighbors.
// This is the Chandy-Misra null-message fixpoint, computed by relaxation
// (positive lookahead guarantees convergence in <= n passes).
func (c *Coordinator) lowerBounds() {
	for i, sh := range c.shards {
		t := timeInf
		if len(sh.Simulator.heap) > 0 {
			t = sh.Simulator.heap[0].at
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

// drain moves every lane targeting dst into its heap, in (timestamp,
// source shard, posting order) order, so sequence-number assignment —
// and therefore same-instant tie-breaking — is deterministic.
func (c *Coordinator) drain(dst int) {
	buf := c.inbox[:0]
	for src := 0; src < c.n; src++ {
		li := src*c.n + dst
		items := c.lanes[li]
		for _, m := range items {
			// Stable insert by timestamp: iteration order (src asc, then
			// posting order) supplies the tie-break for equal times.
			k := len(buf)
			for k > 0 && buf[k-1].at > m.at {
				k--
			}
			buf = append(buf, mailItem{})
			copy(buf[k+1:], buf[k:])
			buf[k] = m
		}
		for i := range items {
			items[i] = mailItem{} // drop arg references
		}
		c.lanes[li] = items[:0]
	}
	sh := c.shards[dst].Simulator
	for _, m := range buf {
		sh.schedule(m.at, nil, m.fn, m.a, m.b)
	}
	for i := range buf {
		buf[i] = mailItem{}
	}
	c.inbox = buf[:0]
}

// worker is the persistent per-shard goroutine: it runs one window per
// horizon received and signals the barrier.
func (c *Coordinator) worker(i int, work <-chan Time) {
	sh := c.shards[i].Simulator
	for limit := range work {
		sh.RunBefore(limit)
		c.wg.Done()
	}
}

// Run advances all shards until no event at or before end remains,
// then leaves every shard clock at end (RunUntil semantics). Reports
// the number of shard events executed.
func (c *Coordinator) Run(end Time) uint64 {
	c.started = true
	sort.SliceStable(c.globals, func(i, j int) bool { return c.globals[i].at < c.globals[j].at })
	var start uint64
	for _, sh := range c.shards {
		start += sh.Executed()
	}
	c.work = make([]chan Time, c.n)
	for i := range c.work {
		c.work[i] = make(chan Time, 1)
		go c.worker(i, c.work[i])
	}
	for {
		c.lowerBounds()
		allDone := true
		for _, t := range c.nb {
			if t <= end {
				allDone = false
				break
			}
		}
		g := timeInf
		if c.gNext < len(c.globals) {
			g = c.globals[c.gNext].at
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
				// Every shard has quiesced to g: advance clocks and run
				// all coordinator events at this instant in order.
				for _, sh := range c.shards {
					if sh.Simulator.now < g {
						sh.Simulator.now = g
					}
				}
				for c.gNext < len(c.globals) && c.globals[c.gNext].at == g {
					c.globals[c.gNext].fn()
					c.gNext++
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
		active := 0
		for i := range c.shards {
			if c.nb[i] < c.horizon[i] {
				active++
			}
		}
		c.wg.Add(active)
		for i := range c.shards {
			if c.nb[i] < c.horizon[i] {
				c.work[i] <- c.horizon[i]
			}
		}
		c.wg.Wait()
		for dst := 0; dst < c.n; dst++ {
			c.drain(dst)
		}
	}
	for i := range c.work {
		close(c.work[i])
	}
	c.work = nil
	c.started = false
	var total uint64
	for _, sh := range c.shards {
		if sh.Simulator.now < end {
			sh.Simulator.now = end
		}
		total += sh.Executed()
	}
	return total - start
}
