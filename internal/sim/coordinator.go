package sim

import (
	"math"
	"sort"
)

// timeInf is a sentinel "no pending event" timestamp.
const timeInf = Time(math.MaxInt64)

// globalEvent is a timeline event (topology mutation, attack toggle, …)
// that fires between windows, where the simulator has executed every
// event strictly before its instant and none at it.
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

// Coordinator runs one Simulator in windows and calls the run's
// timeline (GlobalAt) and its observers (Every) between them. A window
// ends at the next timeline event or hook instant, or after the end of
// the run: the simulator executes the events strictly before it, the
// clock is set to the instant, and the callbacks there run before any
// simulator event at the same instant. No callback is a simulator
// event, so a run executes the same events in the same order whatever
// watches it.
type Coordinator struct {
	s       *Simulator
	globals []globalEvent
	gNext   int
	tickers []ticker
	started bool
	rounds  uint64
}

// NewCoordinator returns a coordinator that runs s.
func NewCoordinator(s *Simulator) *Coordinator { return &Coordinator{s: s} }

// Shards returns 1: a coordinator runs one simulator. Kept for bench/;
// deleted with mesh_shard2.
func (c *Coordinator) Shards() int { return 1 }

// Shard returns the coordinator's simulator, whatever i is. Kept for
// bench/; deleted with mesh_shard2.
func (c *Coordinator) Shard(int) *Simulator { return c.s }

// Rounds reports how many windows Run has executed: one per stretch of
// simulator events between two barrier instants.
func (c *Coordinator) Rounds() uint64 { return c.rounds }

// GlobalAt schedules fn at absolute time t on the coordinator timeline.
// It fires between windows with the clock at t, after every simulator
// event strictly before t and before any at t; events at equal times
// run in registration order. GlobalAt must be called before Run.
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
// instants, at the same kind of barrier GlobalAt fires at. At one
// instant the order is GlobalAt events, then Every hooks in
// registration order, then simulator events. A hook is a reader: it
// costs no simulator event and no per-call allocation, so a run executes
// the same events with or without it. Every must be called before Run.
func (c *Coordinator) Every(period Time, fn func(now Time)) {
	if c.started {
		panic("sim: Every after Run started")
	}
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	c.tickers = append(c.tickers, ticker{period: period, next: period, fn: fn})
}

// Run advances the simulator until no event at or before end remains,
// then leaves its clock at end (RunUntil semantics). If an event calls
// Halt, Run returns at once and leaves the clock at that event. Reports
// the number of events executed.
func (c *Coordinator) Run(end Time) uint64 {
	c.started = true
	defer func() { c.started = false }()
	sort.SliceStable(c.globals, func(i, j int) bool { return c.globals[i].at < c.globals[j].at })
	s := c.s
	start := s.executed
	// The whole run, not one window, is what no caller looks inside:
	// the horizon is the run's end, so what a component settles ahead
	// does not depend on where barriers fall (Every hooks stay readers).
	s.horizon = end
	defer func() { s.horizon = s.now }()
	for {
		// g is the next barrier instant: a GlobalAt event or an Every tick.
		g := timeInf
		if c.gNext < len(c.globals) {
			g = c.globals[c.gNext].at
		}
		for i := range c.tickers {
			g = min(g, c.tickers[i].next)
		}
		if g <= end && s.next() >= g {
			s.now = max(s.now, g)
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
		// Windows are half-open, so end+1 admits the events at end.
		h := min(g, end+1)
		if s.next() >= h {
			break
		}
		c.rounds++
		if s.window(h); s.halted {
			return s.executed - start
		}
	}
	s.now = max(s.now, end)
	return s.executed - start
}
