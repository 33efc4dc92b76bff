package cc

import (
	"fmt"
	"math/rand"
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
)

// chaosPipe is a seeded path that does everything to an endpoint's
// scoreboard a network can: it serialises data at a fixed rate, drops
// data and ACKs at random, holds some packets back far enough that more
// than reorderThresh later ones overtake them, repeats some ACKs, and
// swallows all data during two blackouts longer than the RTO.
type chaosPipe struct {
	s   *sim.Simulator
	ep  *Endpoint
	rng *rand.Rand

	delay    sim.Time // one-way propagation
	txTime   sim.Time // serialisation per data packet
	nextFree sim.Time

	dropP, ackDropP, reorderP, dupAckP float64
	blackouts                          [2][2]sim.Time

	cum     int64
	pending map[int64]bool
}

func newChaosPipe(s *sim.Simulator, seed int64) *chaosPipe {
	rng := rand.New(rand.NewSource(seed))
	cp := &chaosPipe{
		s: s, rng: rng,
		delay: 20 * sim.Millisecond, txTime: 500 * sim.Microsecond,
		dropP: 0.02, ackDropP: 0.01, reorderP: 0.02, dupAckP: 0.03,
		pending: map[int64]bool{},
	}
	// Two blackouts of 0.6–1.0 s (MinRTO is 250 ms), the second one
	// landing while the first one's go-back-N recovery may still run.
	a := sim.Time(300+rng.Intn(400)) * sim.Millisecond
	b := a + sim.Time(700+rng.Intn(1500))*sim.Millisecond
	cp.blackouts = [2][2]sim.Time{
		{a, a + sim.Time(600+rng.Intn(400))*sim.Millisecond},
		{b, b + sim.Time(600+rng.Intn(400))*sim.Millisecond},
	}
	return cp
}

func (cp *chaosPipe) blackedOut(now sim.Time) bool {
	for _, b := range cp.blackouts {
		if now >= b[0] && now < b[1] {
			return true
		}
	}
	return false
}

// Recv implements packet.Node for data packets from the endpoint.
func (cp *chaosPipe) Recv(p *packet.Packet) {
	now := cp.s.Now()
	depart := now
	if cp.nextFree > depart {
		depart = cp.nextFree
	}
	cp.nextFree = depart + cp.txTime
	if cp.blackedOut(now) || cp.rng.Float64() < cp.dropP {
		p.Release()
		return
	}
	arrive := depart + cp.delay
	if cp.rng.Float64() < cp.reorderP {
		// 5–20 serialisation times late: beyond the dup-ACK threshold.
		arrive += sim.Time(5+cp.rng.Intn(16)) * cp.txTime
	}
	cp.s.At(arrive, func() { cp.deliver(p) })
}

// deliver is the receiver: cumulative-ACK bookkeeping, one ACK per data
// packet, sometimes lost, sometimes sent twice.
func (cp *chaosPipe) deliver(p *packet.Packet) {
	if p.Seq == cp.cum {
		cp.cum++
		for cp.pending[cp.cum] {
			delete(cp.pending, cp.cum)
			cp.cum++
		}
	} else if p.Seq > cp.cum {
		cp.pending[p.Seq] = true
	}
	now := cp.s.Now()
	if cp.rng.Float64() >= cp.ackDropP {
		ack := packet.NewAck(p, cp.cum, now)
		cp.s.After(cp.delay, func() { cp.ep.Recv(ack) })
	}
	if cp.rng.Float64() < cp.dupAckP {
		dup := packet.NewAck(p, cp.cum, now)
		late := cp.delay + sim.Time(cp.rng.Intn(40))*sim.Millisecond
		cp.s.After(late, func() { cp.ep.Recv(dup) })
	}
	p.Release()
}

// countingAlg wraps an Algorithm, counts its loss callbacks and runs a
// check after every ACK the endpoint processes.
type countingAlg struct {
	Algorithm
	congestion, rtos int
	onAck            func(e *Endpoint, info AckInfo)
}

func (c *countingAlg) OnAck(now sim.Time, e *Endpoint, info AckInfo) {
	c.Algorithm.OnAck(now, e, info)
	if c.onAck != nil {
		c.onAck(e, info)
	}
}

func (c *countingAlg) OnCongestion(now sim.Time, e *Endpoint) {
	c.congestion++
	c.Algorithm.OnCongestion(now, e)
}

func (c *countingAlg) OnRTO(now sim.Time, e *Endpoint) {
	c.rtos++
	c.Algorithm.OnRTO(now, e)
}

// scoreboardCounters is everything the endpoint's bookkeeping decides.
type scoreboardCounters struct {
	Sent, Retx, Lost, Acked, AckedBytes, NextSeq int64
	Congestion, RTOs                             int
	Done                                         sim.Time
}

func (c scoreboardCounters) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %d, %d, %d}",
		c.Sent, c.Retx, c.Lost, c.Acked, c.AckedBytes, c.NextSeq, c.Congestion, c.RTOs, int64(c.Done))
}

// runChaos drives a 3000-packet transfer through a chaosPipe and returns
// the counters; check, if set, runs after every ACK.
func runChaos(seed int64, alg Algorithm, check func(e *Endpoint, info AckInfo)) scoreboardCounters {
	s := sim.New(seed)
	pipe := newChaosPipe(s, seed)
	ca := &countingAlg{Algorithm: alg, onAck: check}
	ep := NewEndpoint(s, 0, pipe, ca)
	pipe.ep = ep
	ep.Src = NewFixed(3000 * packet.MTU)
	done := sim.Time(-1)
	ep.OnComplete = func(now sim.Time) { done = now }
	ep.Start()
	s.RunUntil(60 * sim.Second)
	return scoreboardCounters{
		Sent: ep.SentPackets, Retx: ep.RetxPackets, Lost: ep.LostPackets,
		Acked: ep.AckedPackets, AckedBytes: ep.AckedBytes, NextSeq: ep.NextSeq(),
		Congestion: ca.congestion, RTOs: ca.rtos, Done: done,
	}
}

// checkScoreboard verifies the ring's invariants: the in-flight count is
// the number of slots in flight, none of them below low; lostQueue is
// ascending without repeats and lists exactly the slots marked lost, so
// no sequence is both queued and in flight; base stands on the lowest
// slot that is not free and the span fits the ring.
func checkScoreboard(t *testing.T, e *Endpoint) {
	t.Helper()
	if n := len(e.ring); n&(n-1) != 0 || e.nextSeq-e.base > int64(n) {
		t.Fatalf("span [%d, %d) in a ring of %d slots", e.base, e.nextSeq, n)
	}
	if e.base > e.low || e.low > e.nextSeq {
		t.Fatalf("base %d, low %d, nextSeq %d out of order", e.base, e.low, e.nextSeq)
	}
	if e.base < e.nextSeq && e.slot(e.base).state == slotFree {
		t.Fatalf("base %d stands on a free slot", e.base)
	}
	inflight, lost := 0, 0
	for seq := e.base; seq < e.nextSeq; seq++ {
		switch e.slot(seq).state {
		case slotInflight:
			inflight++
			if seq < e.low {
				t.Fatalf("sequence %d in flight below low %d", seq, e.low)
			}
		case slotLost:
			lost++
		}
	}
	if inflight != e.inflight || inflight != e.Inflight() {
		t.Fatalf("%d slots in flight, count %d, Inflight() %d", inflight, e.inflight, e.Inflight())
	}
	queue := e.lostQueue[e.lostHead:]
	if len(queue) != lost {
		t.Fatalf("%d sequences queued, %d slots marked lost", len(queue), lost)
	}
	for i, seq := range queue {
		if i > 0 && seq <= queue[i-1] {
			t.Fatalf("lostQueue %v not strictly ascending", queue)
		}
		if seq < e.base || seq >= e.nextSeq || e.slot(seq).state != slotLost {
			t.Fatalf("queued sequence %d is not a lost slot of span [%d, %d)", seq, e.base, e.nextSeq)
		}
	}
}

// ackChecker returns a per-ACK check for runChaos: the scoreboard
// invariants, no sequence acknowledged twice, and never more in flight
// than the largest window the algorithm has asked for.
func ackChecker(t *testing.T) func(e *Endpoint, info AckInfo) {
	ackedOnce := map[int64]bool{}
	maxWindow := 0.0
	return func(e *Endpoint, info AckInfo) {
		t.Helper()
		checkScoreboard(t, e)
		if info.AckedBytes > 0 {
			if ackedOnce[info.Ack.Seq] {
				t.Fatalf("sequence %d acknowledged twice", info.Ack.Seq)
			}
			ackedOnce[info.Ack.Seq] = true
		}
		if w := e.Alg.CwndPkts(); w > maxWindow {
			maxWindow = w
		}
		if float64(e.Inflight()) >= maxWindow+1 {
			t.Fatalf("%d in flight, window never above %.1f", e.Inflight(), maxWindow)
		}
	}
}

func TestEndpointScoreboardCounters(t *testing.T) {
	algs := []struct {
		name string
		mk   func() Algorithm
		want []scoreboardCounters
	}{
		{"fixed", func() Algorithm { return &fixedWindow{w: 48} }, scoreboardFixedWant},
		{"cubic", func() Algorithm { return NewCubic() }, scoreboardCubicWant},
	}
	for _, a := range algs {
		for seed := int64(1); seed <= 20; seed++ {
			got := runChaos(seed, a.mk(), ackChecker(t))
			if got.Done < 0 {
				t.Errorf("%s seed %d: transfer never completed", a.name, seed)
			}
			if int(seed) > len(a.want) {
				t.Errorf("%s seed %d: no pinned counters; got %v", a.name, seed, got)
				continue
			}
			if want := a.want[seed-1]; got != want {
				t.Errorf("%s seed %d:\n got  %v\n want %v", a.name, seed, got, want)
			}
		}
	}
}

// Recorded at the commit before the ring scoreboard replaced the in-flight
// map and the sequence heap (fields: Sent, Retx, Lost, Acked, AckedBytes,
// NextSeq, Congestion, RTOs, Done in ns).
var scoreboardFixedWant = []scoreboardCounters{
	{3245, 245, 245, 3000, 4500000, 3000, 34, 4, 4850000000}, // seed 1
	{3283, 283, 283, 3000, 4500000, 3000, 29, 4, 4355500000}, // seed 2
	{3334, 334, 334, 3000, 4500000, 3000, 29, 5, 5331000000}, // seed 3
	{3339, 339, 339, 3000, 4500000, 3000, 32, 5, 5330500000}, // seed 4
	{3292, 292, 292, 3000, 4500000, 3000, 34, 4, 4290000000}, // seed 5
	{3382, 382, 382, 3000, 4500000, 3000, 31, 7, 6580000000}, // seed 6
	{3299, 299, 299, 3000, 4500000, 3000, 28, 4, 5625000000}, // seed 7
	{3252, 252, 252, 3000, 4500000, 3000, 32, 4, 4751500000}, // seed 8
	{3294, 294, 294, 3000, 4500000, 3000, 30, 4, 5575000000}, // seed 9
	{3405, 405, 405, 3000, 4500000, 3000, 30, 6, 6324000000}, // seed 10
	{3324, 324, 324, 3000, 4500000, 3000, 32, 5, 5282500000}, // seed 11
	{3238, 238, 238, 3000, 4500000, 3000, 25, 3, 4524000000}, // seed 12
	{3346, 346, 346, 3000, 4500000, 3000, 22, 6, 5660500000}, // seed 13
	{3299, 299, 299, 3000, 4500000, 3000, 27, 4, 4368000000}, // seed 14
	{3242, 242, 242, 3000, 4500000, 3000, 30, 3, 4481000000}, // seed 15
	{3294, 294, 294, 3000, 4500000, 3000, 21, 4, 5637000000}, // seed 16
	{3344, 344, 344, 3000, 4500000, 3000, 29, 5, 5385500000}, // seed 17
	{3289, 289, 289, 3000, 4500000, 3000, 34, 4, 5529000000}, // seed 18
	{3289, 289, 289, 3000, 4500000, 3000, 33, 5, 5830000000}, // seed 19
	{3343, 343, 343, 3000, 4500000, 3000, 26, 5, 5342500000}, // seed 20
}

var scoreboardCubicWant = []scoreboardCounters{
	{3118, 118, 134, 3000, 4500000, 3000, 93, 3, 20004500000},  // seed 1
	{3117, 117, 131, 3000, 4500000, 3000, 76, 5, 18180000000},  // seed 2
	{3117, 117, 138, 3000, 4500000, 3000, 81, 5, 19795500000},  // seed 3
	{3123, 123, 167, 3000, 4500000, 3000, 78, 7, 19710000000},  // seed 4
	{3117, 117, 129, 3000, 4500000, 3000, 84, 4, 19290500000},  // seed 5
	{3111, 111, 135, 3000, 4500000, 3000, 76, 6, 20020000000},  // seed 6
	{3125, 125, 143, 3000, 4500000, 3000, 90, 4, 21018000000},  // seed 7
	{3136, 136, 157, 3000, 4500000, 3000, 107, 4, 22220000000}, // seed 8
	{3133, 133, 151, 3000, 4500000, 3000, 104, 4, 22429500000}, // seed 9
	{3117, 117, 141, 3000, 4500000, 3000, 88, 6, 21284500000},  // seed 10
	{3117, 117, 150, 3000, 4500000, 3000, 70, 5, 17938000000},  // seed 11
	{3122, 122, 146, 3000, 4500000, 3000, 91, 3, 19543500000},  // seed 12
	{3137, 137, 162, 3000, 4500000, 3000, 97, 6, 21920000000},  // seed 13
	{3126, 126, 143, 3000, 4500000, 3000, 93, 4, 19629500000},  // seed 14
	{3136, 136, 160, 3000, 4500000, 3000, 96, 3, 19682000000},  // seed 15
	{3114, 114, 135, 3000, 4500000, 3000, 93, 4, 21100000000},  // seed 16
	{3141, 141, 163, 3000, 4500000, 3000, 99, 5, 21429000000},  // seed 17
	{3130, 130, 173, 3000, 4500000, 3000, 90, 4, 20029500000},  // seed 18
	{3126, 126, 150, 3000, 4500000, 3000, 98, 4, 20620000000},  // seed 19
	{3138, 138, 167, 3000, 4500000, 3000, 89, 5, 19957000000},  // seed 20
}

// dropNth drops the first n transmissions of each listed data sequence on
// the way into next, retransmissions included.
func dropNth(next packet.Node, n map[int64]int) packet.Node {
	return packet.NodeFunc(func(p *packet.Packet) {
		if n[p.Seq] > 0 {
			n[p.Seq]--
			p.Release()
			return
		}
		next.Recv(p)
	})
}

func TestScoreboardRingGrows(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 20*sim.Millisecond)
	alg := &countingAlg{Algorithm: &fixedWindow{w: 100}, onAck: ackChecker(t)}
	ep := NewEndpoint(s, 0, pipe, alg)
	pipe.ep = ep
	ep.Start()
	s.RunUntil(10 * sim.Millisecond)
	if ep.Inflight() != 100 || len(ep.ring) != 128 {
		t.Fatalf("%d in flight in a ring of %d, want 100 in 128 (grown from %d)", ep.Inflight(), len(ep.ring), initialRing)
	}
	checkScoreboard(t, ep)
	// A hole holds base back while the window moves on above it, so the
	// span, and with it the ring, outgrows the window until the hole is
	// filled; a ring that is full when the span wraps has to double too.
	pipe.dropSet[300] = true
	s.RunUntil(2 * sim.Second)
	if ep.LostPackets != 1 || ep.RetxPackets != 1 || ep.AckedPackets < 1000 {
		t.Errorf("lost %d, retx %d, acked %d with a hole at 300", ep.LostPackets, ep.RetxPackets, ep.AckedPackets)
	}
	if len(ep.ring) != 256 {
		t.Errorf("ring of %d slots after a one-window hole under a window of 100, want 256", len(ep.ring))
	}
}

func TestScoreboardSpanWrapsRing(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 20*sim.Millisecond)
	// Holes on both sides of index 0 of the 16-slot ring, so base waits
	// at the ring's end while new data lands at its start.
	for _, seq := range []int64{31, 32, 47, 160} {
		pipe.dropSet[seq] = true
	}
	alg := &countingAlg{Algorithm: &fixedWindow{w: 5}, onAck: ackChecker(t)}
	ep := NewEndpoint(s, 0, pipe, alg)
	pipe.ep = ep
	ep.Src = NewFixed(400 * packet.MTU)
	done := false
	ep.OnComplete = func(sim.Time) { done = true }
	ep.Start()
	s.RunUntil(10 * sim.Second)
	if !done || ep.AckedPackets != 400 || ep.LostPackets != 4 || ep.RetxPackets != 4 {
		t.Errorf("done %v, acked %d, lost %d, retx %d; want 400 acked and the 4 holes filled", done, ep.AckedPackets, ep.LostPackets, ep.RetxPackets)
	}
	if len(ep.ring) != initialRing {
		t.Errorf("ring grew to %d slots under a window of 5", len(ep.ring))
	}
	if ep.base != 400 || ep.low != 400 || ep.Inflight() != 0 {
		t.Errorf("finished with base %d, low %d, %d in flight", ep.base, ep.low, ep.Inflight())
	}
}

// TestScoreboardLostRetransmission loses sequence 7 and then its
// retransmission. The first retransmission re-enters below the scan
// pointer and has to pull it back; while it is out, dup-ACK evidence is
// ignored for it, so the second loss is found only once the
// retransmission has been out for an RTO — by the ACK clock, which the
// other nine slots of the window keep running, not by the timer.
func TestScoreboardLostRetransmission(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 20*sim.Millisecond)
	inner := &countingAlg{Algorithm: &fixedWindow{w: 10}}
	ep := NewEndpoint(s, 0, dropNth(pipe, map[int64]int{7: 2}), inner)
	pipe.ep = ep
	check := ackChecker(t)
	var lowAtRetx, retxAt, redetectedAt sim.Time = -1, -1, -1
	inner.onAck = func(e *Endpoint, info AckInfo) {
		check(e, info)
		now := s.Now()
		switch {
		case e.RetxPackets == 1 && retxAt < 0:
			retxAt, lowAtRetx = now, sim.Time(e.low)
			if st := e.slot(7); st.state != slotInflight || !st.retx {
				t.Errorf("after the first retransmission slot 7 is %+v", *st)
			}
		case e.LostPackets == 2 && redetectedAt < 0:
			redetectedAt = now
		}
	}
	ep.Start()
	s.RunUntil(3 * sim.Second)
	if lowAtRetx != 7 {
		t.Errorf("low = %d after retransmitting 7, want 7", lowAtRetx)
	}
	if ep.LostPackets != 2 || ep.RetxPackets != 2 || inner.rtos != 0 {
		t.Fatalf("lost %d, retx %d, RTOs %d; want 2, 2, 0", ep.LostPackets, ep.RetxPackets, inner.rtos)
	}
	if wait := redetectedAt - retxAt; wait < ep.MinRTO || wait > ep.MinRTO+50*sim.Millisecond {
		t.Errorf("lost retransmission re-detected after %v, want just over the %v RTO", wait, ep.MinRTO)
	}
	if pipe.cum < 100 || ep.base <= 7 {
		t.Errorf("transfer stuck: receiver at %d, base %d", pipe.cum, ep.base)
	}
}
