package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestCoordinatorGlobalEvents pins the barrier contract of GlobalAt and
// Every: callbacks run with the simulator quiesced strictly before the
// instant and its clock reading it; at one instant the order is
// timeline events in registration order, then hooks in registration
// order, then simulator events; a hook fires at period, 2*period, … up
// to and including the end of the Run, once each, and carries on across
// Runs.
func TestCoordinatorGlobalEvents(t *testing.T) {
	const period = 4 * Millisecond
	s := New(1)
	c := NewCoordinator(s)
	var order []string
	seen := -1
	s.At(8*Millisecond, func() { seen = len(order) })
	at := func(what string, now Time) {
		if got := s.Now(); got != now {
			t.Errorf("%s ran with the clock at %v, want %v", what, got, now)
		}
		order = append(order, fmt.Sprintf("%s@%d", what, now/Millisecond))
	}
	c.GlobalAt(8*Millisecond, func() { at("globalA", 8*Millisecond) })
	c.Every(period, func(now Time) { at("hookA", now) })
	c.GlobalAt(8*Millisecond, func() { at("globalB", 8*Millisecond) })
	c.GlobalAt(5*Millisecond, func() { at("globalEarly", 5*Millisecond) })
	c.Every(2*period, func(now Time) { at("hookB", now) })
	c.Run(22 * Millisecond) // ends between two ticks
	c.Run(24 * Millisecond) // ends on one
	want := []string{
		"hookA@4", "globalEarly@5",
		"globalA@8", "globalB@8", "hookA@8", "hookB@8",
		"hookA@12", "hookA@16", "hookB@16", "hookA@20", "hookA@24", "hookB@24",
	}
	if !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if seen != 6 {
		t.Errorf("the simulator's event at 8ms ran after %d barrier callbacks, want all 6 up to that instant", seen)
	}

	// Like GlobalAt, Every is set-up only: registering from inside a Run
	// is a bug, not a request to start late.
	c = NewCoordinator(New(1))
	c.Every(Millisecond, func(Time) { c.Every(Millisecond, func(Time) {}) })
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Every after Run started") {
			t.Errorf("Every from inside Run panicked with %q, want the after-Run message", msg)
		}
	}()
	c.Run(Second)
}

// TestCoordinatorHalt: Halt from an event ends Run at once with the
// clock left at that event, and a second Run picks up every event the
// first one left.
func TestCoordinatorHalt(t *testing.T) {
	s := New(1)
	c := NewCoordinator(s)
	ticks := 0
	s.Every(Millisecond, func() bool { ticks++; return true })
	s.At(10*Millisecond+Microsecond, s.Halt)
	c.Every(3*Millisecond, func(Time) {})
	const end = 50 * Millisecond
	first := c.Run(end)
	if now := s.Now(); now != 10*Millisecond+Microsecond || ticks != 10 {
		t.Errorf("halted at %v after %d ticks, want the halting event's time after 10", now, ticks)
	}
	second := c.Run(end)
	if first+second != 51 || ticks != 50 {
		t.Errorf("executed %d+%d events, %d ticks; want 51 in all and 50 ticks", first, second, ticks)
	}
	if now := s.Now(); now != end {
		t.Errorf("clock %v after the resumed Run, want %v", now, end)
	}
}
