package qdisc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"abc/internal/packet"
	"abc/internal/sim"
)

func mkPkt(seq int64, ecn packet.ECN) *packet.Packet {
	p := packet.NewData(1, seq, packet.MTU, 0)
	p.ECN = ecn
	return p
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(10)
	for i := int64(0); i < 5; i++ {
		if !q.Enqueue(sim.Time(i), mkPkt(i, packet.NotECT)) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Len() != 5 || q.Bytes() != 5*packet.MTU {
		t.Errorf("len=%d bytes=%d", q.Len(), q.Bytes())
	}
	for i := int64(0); i < 5; i++ {
		p := q.Dequeue(10 * sim.Millisecond)
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d: got %v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Error("empty queue returned a packet")
	}
}

func TestDropTailLimit(t *testing.T) {
	q := NewDropTail(3)
	for i := int64(0); i < 5; i++ {
		q.Enqueue(0, mkPkt(i, packet.NotECT))
	}
	if q.Len() != 3 {
		t.Errorf("len = %d, want 3", q.Len())
	}
	if q.Stats.DroppedPackets != 2 {
		t.Errorf("drops = %d, want 2", q.Stats.DroppedPackets)
	}
}

func TestDropTailUnlimited(t *testing.T) {
	q := NewDropTail(0)
	for i := int64(0); i < 1000; i++ {
		if !q.Enqueue(0, mkPkt(i, packet.NotECT)) {
			t.Fatal("unlimited queue rejected a packet")
		}
	}
	if q.Len() != 1000 {
		t.Errorf("len = %d", q.Len())
	}
}

// TestFIFOCompaction exercises the head-compaction path with interleaved
// operations.
func TestFIFOCompaction(t *testing.T) {
	q := NewDropTail(0)
	next := int64(0)
	out := int64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			q.Enqueue(0, mkPkt(next, packet.NotECT))
			next++
		}
		for i := 0; i < 35; i++ {
			p := q.Dequeue(0)
			if p == nil || p.Seq != out {
				t.Fatalf("round %d: got %v want seq %d", round, p, out)
			}
			out++
		}
	}
	if q.Len() != int(next-out) {
		t.Errorf("len = %d, want %d", q.Len(), next-out)
	}
}

// TestFIFOOrderProperty: for any interleaving of pushes and pops the
// FIFO never reorders.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewDropTail(0)
		var next, out int64
		for _, push := range ops {
			if push {
				q.Enqueue(0, mkPkt(next, packet.NotECT))
				next++
			} else if p := q.Dequeue(0); p != nil {
				if p.Seq != out {
					return false
				}
				out++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// drainAt pops until empty at the given per-packet interval, returning
// max sojourn observed by the caller's clock.
func TestCoDelMarksPersistentQueue(t *testing.T) {
	q := NewCoDel(0, true)
	now := sim.Time(0)
	// Build a standing queue of ECN-capable packets and drain slower
	// than the arrival for a while.
	seq := int64(0)
	marked := 0
	for step := 0; step < 4000; step++ {
		now += sim.Millisecond
		q.Enqueue(now, mkPkt(seq, packet.Accel))
		seq++
		if step%2 == 0 { // drain at half the arrival rate
			if p := q.Dequeue(now); p != nil && p.ECN == packet.CE {
				marked++
			}
		}
	}
	if marked == 0 {
		t.Error("CoDel never CE-marked a persistently over-target queue")
	}
}

func TestCoDelDropsWithoutECN(t *testing.T) {
	q := NewCoDel(0, false)
	now := sim.Time(0)
	seq := int64(0)
	for step := 0; step < 4000; step++ {
		now += sim.Millisecond
		q.Enqueue(now, mkPkt(seq, packet.NotECT))
		seq++
		if step%2 == 0 {
			q.Dequeue(now)
		}
	}
	if q.Stats.DroppedPackets == 0 {
		t.Error("CoDel never dropped a persistently over-target queue")
	}
}

func TestCoDelIdleBelowTarget(t *testing.T) {
	q := NewCoDel(0, false)
	now := sim.Time(0)
	// Arrival == departure, sojourn ~0: no drops ever.
	for i := int64(0); i < 1000; i++ {
		now += sim.Millisecond
		q.Enqueue(now, mkPkt(i, packet.NotECT))
		if p := q.Dequeue(now); p == nil {
			t.Fatal("lost a packet")
		}
	}
	if q.Stats.DroppedPackets != 0 {
		t.Errorf("dropped %d packets with empty queue", q.Stats.DroppedPackets)
	}
}

func TestPIEDropsUnderLoad(t *testing.T) {
	q := NewPIE(0, false, rand.New(rand.NewSource(1)))
	now := sim.Time(0)
	seq := int64(0)
	// Overload: 2 arrivals per departure, 1500B/ms departures (12Mbps).
	for step := 0; step < 5000; step++ {
		now += sim.Millisecond
		q.Enqueue(now, mkPkt(seq, packet.NotECT))
		seq++
		q.Enqueue(now, mkPkt(seq, packet.NotECT))
		seq++
		q.Dequeue(now)
	}
	if q.Stats.DroppedPackets == 0 {
		t.Error("PIE never dropped under 2x overload")
	}
}

func TestPIECalmWhenUnloaded(t *testing.T) {
	q := NewPIE(0, false, rand.New(rand.NewSource(1)))
	now := sim.Time(0)
	for i := int64(0); i < 2000; i++ {
		now += sim.Millisecond
		q.Enqueue(now, mkPkt(i, packet.NotECT))
		q.Dequeue(now)
	}
	if q.Stats.DroppedPackets > 0 {
		t.Errorf("PIE dropped %d packets at zero standing queue", q.Stats.DroppedPackets)
	}
}

func TestREDDropsAboveThreshold(t *testing.T) {
	q := NewRED(100, false, rand.New(rand.NewSource(1)))
	now := sim.Time(0)
	seq := int64(0)
	for step := 0; step < 5000; step++ {
		now += 100 * sim.Microsecond
		q.Enqueue(now, mkPkt(seq, packet.NotECT))
		seq++
		if step%2 == 0 {
			q.Dequeue(now)
		}
	}
	if q.Stats.DroppedPackets == 0 {
		t.Error("RED never dropped despite persistent overload")
	}
}

func TestREDECNMarksInsteadOfDropping(t *testing.T) {
	q := NewRED(100, true, rand.New(rand.NewSource(1)))
	now := sim.Time(0)
	seq := int64(0)
	for step := 0; step < 5000; step++ {
		now += 100 * sim.Microsecond
		q.Enqueue(now, mkPkt(seq, packet.Accel))
		seq++
		if step%2 == 0 {
			q.Dequeue(now)
		}
	}
	if q.Stats.MarkedPackets == 0 {
		t.Error("RED with ECN never marked")
	}
}

// TestQdiscConservation: packets in = packets out + drops + still queued,
// for every discipline, under random load patterns.
func TestQdiscConservation(t *testing.T) {
	mk := map[string]func() Qdisc{
		"droptail": func() Qdisc { return NewDropTail(50) },
		"codel":    func() Qdisc { return NewCoDel(50, false) },
		"pie":      func() Qdisc { return NewPIE(50, false, rand.New(rand.NewSource(2))) },
		"red":      func() Qdisc { return NewRED(50, false, rand.New(rand.NewSource(2))) },
	}
	for name, ctor := range mk {
		t.Run(name, func(t *testing.T) {
			q := ctor()
			rng := rand.New(rand.NewSource(7))
			now := sim.Time(0)
			var in, out, rejected int64
			for step := 0; step < 20000; step++ {
				now += sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))
				if rng.Intn(3) > 0 {
					in++
					if !q.Enqueue(now, mkPkt(in, packet.NotECT)) {
						rejected++
					}
				} else if q.Dequeue(now) != nil {
					out++
				}
			}
			stats := q.Counters()
			// CoDel drops at dequeue time too, so account via stats.
			total := out + int64(q.Len()) + stats.DroppedPackets
			if total != in {
				t.Errorf("%s: in=%d out=%d queued=%d dropped=%d (sum %d)",
					name, in, out, q.Len(), stats.DroppedPackets, total)
			}
		})
	}
}

func TestMarkOrDrop(t *testing.T) {
	// The store's two congestion signals: a CE mark keeps the packet, a
	// refusal hands it back to the caller untouched.
	var q Queue
	p := mkPkt(1, packet.Accel)
	if q.mark(p); p.ECN != packet.CE || q.Stats.MarkedPackets != 1 {
		t.Errorf("ECN-capable packet should be CE-marked: %v", p.ECN)
	}
	p2 := mkPkt(2, packet.NotECT)
	if q.Refuse() || q.Stats.DroppedPackets != 1 || p2.ECN != packet.NotECT {
		t.Error("NotECT packet should be dropped")
	}
}

// TestRateMeterRetention pins the meter's storage: past its window it
// keeps a bounded tail however many samples went through.
func TestRateMeterRetention(t *testing.T) {
	m := RateMeter{Window: 10 * sim.Millisecond}
	now := sim.Time(0)
	for i := 0; i < 10000; i++ {
		now += sim.Millisecond
		m.Add(now, 100)
	}
	if live := len(m.times) - m.head; live > 100 || cap(m.times) > 2048 {
		t.Errorf("meter retains %d entries (cap %d) for an 11-entry window", live, cap(m.times))
	}
}
