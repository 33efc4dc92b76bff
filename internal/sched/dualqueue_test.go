package sched

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"abc/internal/packet"
	"abc/internal/sim"
)

func mkPkt(flow int, abcFlow bool, seq int64) *packet.Packet {
	p := packet.NewData(flow, seq, packet.MTU, 0)
	p.ABCFlow = abcFlow
	if abcFlow {
		p.ECN = packet.Accel
	}
	return p
}

func newDQ() *DualQueue {
	dq := NewDualQueue(DefaultConfig())
	dq.SetCapacityProvider(func(sim.Time) float64 { return 24e6 })
	return dq
}

func TestClassification(t *testing.T) {
	dq := newDQ()
	dq.Enqueue(0, mkPkt(1, true, 0))
	dq.Enqueue(0, mkPkt(2, false, 0))
	dq.Enqueue(0, mkPkt(1, true, 1))
	if dq.ABC.Len() != 2 || dq.Other.Len() != 1 {
		t.Errorf("abc=%d other=%d", dq.ABC.Len(), dq.Other.Len())
	}
	if dq.Len() != 3 || dq.Bytes() != 3*packet.MTU {
		t.Errorf("len=%d bytes=%d", dq.Len(), dq.Bytes())
	}
}

func TestWeightedService(t *testing.T) {
	dq := newDQ()
	dq.wABC = 0.75
	// Fill both queues deeply.
	for i := int64(0); i < 100; i++ {
		dq.Enqueue(0, mkPkt(1, true, i))
		dq.Enqueue(0, mkPkt(2, false, i))
	}
	abcServed := 0
	for i := 0; i < 80; i++ {
		p := dq.Dequeue(0)
		if p == nil {
			t.Fatal("empty dequeue")
		}
		if p.ABCFlow {
			abcServed++
		}
	}
	frac := float64(abcServed) / 80
	if math.Abs(frac-0.75) > 0.05 {
		t.Errorf("ABC service fraction %.2f, want 0.75", frac)
	}
}

func TestWorkConservation(t *testing.T) {
	dq := newDQ()
	dq.wABC = 0.9
	// Only the non-ABC queue has traffic: it must get full service.
	for i := int64(0); i < 10; i++ {
		dq.Enqueue(0, mkPkt(2, false, i))
	}
	for i := 0; i < 10; i++ {
		if dq.Dequeue(0) == nil {
			t.Fatal("starved a backlogged queue")
		}
	}
}

func TestInnerABCCapacityScaledByWeight(t *testing.T) {
	dq := newDQ()
	dq.wABC = 0.5
	// The inner router's µ must be half the link: target rate = η·12e6.
	tr := dq.ABC.TargetRate(0)
	want := 0.98 * 12e6
	if math.Abs(tr-want)/want > 0.01 {
		t.Errorf("inner target rate %.0f, want %.0f", tr, want)
	}
}

func TestMaxMinReweighsTowardHeavyDemand(t *testing.T) {
	dq := NewDualQueue(DefaultConfig())
	dq.SetCapacityProvider(func(sim.Time) float64 { return 24e6 })
	now := sim.Time(0)
	// 3 ABC long flows vs 1 Cubic long flow, all backlogged: max-min
	// gives ABC 3/4 of the link.
	seq := int64(0)
	for step := 0; step < 3000; step++ {
		now += sim.Millisecond
		for f := 0; f < 3; f++ {
			dq.Enqueue(now, mkPkt(f, true, seq))
			seq++
		}
		dq.Enqueue(now, mkPkt(10, false, seq))
		seq++
		for i := 0; i < 4; i++ {
			dq.Dequeue(now)
		}
	}
	if w := dq.WeightABC(); math.Abs(w-0.75) > 0.1 {
		t.Errorf("maxmin weight %.2f, want ≈ 0.75", w)
	}
}

func TestZombieCountsFlowsNotDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = ZombieList
	dq := NewDualQueue(cfg)
	dq.SetCapacityProvider(func(sim.Time) float64 { return 24e6 })
	now := sim.Time(0)
	seq := int64(0)
	// 1 ABC flow vs 3 distinct Cubic flows: zombie policy weights 1:3
	// regardless of demand.
	for step := 0; step < 3000; step++ {
		now += sim.Millisecond
		dq.Enqueue(now, mkPkt(0, true, seq))
		seq++
		dq.Enqueue(now, mkPkt(10+int(seq)%3, false, seq))
		seq++
		dq.Dequeue(now)
		dq.Dequeue(now)
	}
	if w := dq.WeightABC(); math.Abs(w-0.25) > 0.1 {
		t.Errorf("zombie weight %.2f, want ≈ 0.25", w)
	}
}

func TestMaxMinAllocateBasics(t *testing.T) {
	// Ample capacity: everyone gets their demand.
	al := MaxMinAllocate(100, []float64{10, 20, 30})
	for i, want := range []float64{10, 20, 30} {
		if math.Abs(al[i]-want) > 1e-9 {
			t.Errorf("alloc[%d] = %v", i, al[i])
		}
	}
	// Scarce capacity: equal split among the unconstrained.
	al = MaxMinAllocate(30, []float64{5, 100, 100})
	if math.Abs(al[0]-5) > 1e-9 {
		t.Errorf("demand-limited got %v", al[0])
	}
	if math.Abs(al[1]-12.5) > 1e-9 || math.Abs(al[2]-12.5) > 1e-9 {
		t.Errorf("unconstrained got %v, %v", al[1], al[2])
	}
}

func TestMaxMinAllocateEdgeCases(t *testing.T) {
	if got := MaxMinAllocate(0, []float64{1}); got[0] != 0 {
		t.Error("zero capacity should allocate nothing")
	}
	if got := MaxMinAllocate(10, nil); len(got) != 0 {
		t.Error("no demands should return empty")
	}
}

// TestMaxMinProperties: allocations never exceed demand, never exceed
// capacity in total, and demand-limited users are fully satisfied before
// anyone gets more than they do.
func TestMaxMinProperties(t *testing.T) {
	f := func(demRaw []uint16, capRaw uint32) bool {
		if len(demRaw) == 0 {
			return true
		}
		demands := make([]float64, len(demRaw))
		for i, d := range demRaw {
			demands[i] = float64(d)
		}
		capacity := float64(capRaw%100000) + 1
		al := MaxMinAllocate(capacity, demands)
		var total float64
		for i, a := range al {
			if a > demands[i]+1e-6 {
				return false // over-allocated
			}
			total += a
		}
		if total > capacity+1e-6 {
			return false
		}
		// Max-min property: if user i got strictly less than its
		// demand, no user j got more than a_i + epsilon unless j's
		// allocation equals j's demand... equivalently, all
		// unsatisfied users receive the same share.
		share := -1.0
		for i, a := range al {
			if a < demands[i]-1e-6 {
				if share < 0 {
					share = a
				} else if math.Abs(a-share) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDualQueueRespectsLimits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Limit = 5
	dq := NewDualQueue(cfg)
	dq.SetCapacityProvider(func(sim.Time) float64 { return 24e6 })
	for i := int64(0); i < 10; i++ {
		dq.Enqueue(0, mkPkt(1, true, i))
		dq.Enqueue(0, mkPkt(2, false, i))
	}
	if dq.ABC.Len() > 5 || dq.Other.Len() > 5 {
		t.Errorf("limits exceeded: %d / %d", dq.ABC.Len(), dq.Other.Len())
	}
	if got := dq.Counters().DroppedPackets; got != 10 {
		t.Errorf("%d drops counted, want 5 per queue", got)
	}
}

func TestWeightClamped(t *testing.T) {
	dq := NewDualQueue(DefaultConfig())
	dq.SetCapacityProvider(func(sim.Time) float64 { return 24e6 })
	now := sim.Time(0)
	// Only non-ABC traffic for a long time: weight must stay above the
	// minimum so ABC is never starved out of existence.
	for i := int64(0); i < 2000; i++ {
		now += sim.Millisecond
		dq.Enqueue(now, mkPkt(2, false, i))
		dq.Dequeue(now)
	}
	if w := dq.WeightABC(); w < minWeight-1e-9 || w > 1-minWeight+1e-9 {
		t.Errorf("weight %.3f outside clamp", w)
	}
}

// TestWeightsRecomputeEvery200ms: the weights are recomputed on a fixed
// 200 ms grid that starts at the first packet.
func TestWeightsRecomputeEvery200ms(t *testing.T) {
	dq := NewDualQueue(DefaultConfig())
	dq.SetCapacityProvider(func(sim.Time) float64 { return 24e6 })
	var got []sim.Time
	for now := sim.Millisecond; now <= 1000*sim.Millisecond; now += sim.Millisecond {
		before := dq.intervalStart
		dq.Enqueue(now, mkPkt(1, true, int64(now)))
		dq.Dequeue(now)
		if before != 0 && dq.intervalStart != before {
			got = append(got, dq.intervalStart)
		}
	}
	want := []sim.Time{201 * sim.Millisecond, 401 * sim.Millisecond, 601 * sim.Millisecond, 801 * sim.Millisecond}
	if !slices.Equal(got, want) {
		t.Fatalf("weights recomputed at %v, want %v", got, want)
	}
}
