package topo

import (
	"math/rand"
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
)

// TestSlotIndexChurn routes and unroutes flows in random order, new ids
// ever increasing and one flow routed throughout, and checks the slot
// index against a reference set after every step: each routed flow is
// found in its own slot, and a few ids on either side of the ones
// routed are not found. The index and the slot table grow only with
// the most flows routed at once.
func TestSlotIndexChurn(t *testing.T) {
	g := New(sim.New(1))
	rng := rand.New(rand.NewSource(1))
	sink := &packet.Sink{}
	routed := map[int]bool{}
	var live []int
	next, peak := 0, 0
	check := func(step int) {
		t.Helper()
		for f := max(0, next-200); f < next+5; f++ {
			id, ok := g.findSlot(f)
			if want := routed[f]; ok != want || ok && g.slots[id].flow != f {
				t.Fatalf("step %d: flow %d found %v in slot %d (of flow %d), want found %v", step, f, ok, id, g.slots[id].flow, want)
			}
		}
		if _, ok := g.findSlot(0); !ok {
			t.Fatalf("step %d: the long-lived flow 0 is not found", step)
		}
	}
	for step := 0; step < 20000; step++ {
		if len(live) < 2 || len(live) < 60 && rng.Intn(2) == 0 {
			if _, err := g.RouteFlow(next, false, nil, 0, sink); err != nil {
				t.Fatal(err)
			}
			routed[next] = true
			if next > 0 {
				live = append(live, next)
			}
			next++
		} else {
			i := rng.Intn(len(live))
			f := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := g.UnrouteFlow(f); err != nil {
				t.Fatal(err)
			}
			delete(routed, f)
		}
		peak = max(peak, len(routed))
		check(step)
	}
	held, table := g.Slots()
	t.Logf("%d flows routed, at most %d at once: %d slots held, table of %d, index of %d", next, peak, held, table, len(g.index))
	if held != len(routed) || table > peak || len(g.index) > 4*peak {
		t.Errorf("%d slots held of a table of %d, index of %d; want %d held, at most %d slots and %d positions",
			held, table, len(g.index), len(routed), peak, 4*peak)
	}
}
