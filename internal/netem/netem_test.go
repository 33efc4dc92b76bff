package netem

import (
	"math"
	"testing"
	"unsafe"

	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/trace"
)

func TestWireDelays(t *testing.T) {
	s := sim.New(1)
	sink := &packet.Sink{}
	w := NewWire(s, 25*sim.Millisecond, sink)
	var arrival sim.Time
	w.Dst = packet.NodeFunc(func(p *packet.Packet) {
		arrival = s.Now()
		sink.Recv(p)
	})
	w.Recv(packet.NewData(1, 0, packet.MTU, 0))
	s.Run()
	if arrival != 25*sim.Millisecond {
		t.Errorf("arrived at %v", arrival)
	}
	if sink.Count != 1 {
		t.Errorf("count = %d", sink.Count)
	}
}

// arrival is one delivery observed at the far end of a wire.
type arrival struct {
	seq int64
	at  sim.Time
}

func checkArrivals(t *testing.T, got, want []arrival) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("arrivals %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arrival %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestWireZeroValueLiteral: the examples build wires as struct literals
// and set Dst afterwards, so a Wire must work without a constructor, in
// FIFO order, with all in-flight packets counted as pending.
func TestWireZeroValueLiteral(t *testing.T) {
	s := sim.New(1)
	w := &Wire{S: s, Delay: 5 * sim.Millisecond}
	var got []arrival
	w.Dst = packet.NodeFunc(func(p *packet.Packet) { got = append(got, arrival{p.Seq, s.Now()}); p.Release() })
	for i := int64(0); i < 3; i++ {
		w.Recv(packet.NewData(1, i, packet.MTU, s.Now()))
		s.RunUntil(s.Now() + sim.Millisecond)
	}
	if s.Pending() != 3 {
		t.Fatalf("Pending() = %d with three packets in flight", s.Pending())
	}
	s.Run()
	checkArrivals(t, got, []arrival{{0, 5 * sim.Millisecond}, {1, 6 * sim.Millisecond}, {2, 7 * sim.Millisecond}})
}

// TestWireOwnsItsLine: a wire is one 64-byte cache line, so the chain
// every packet on it writes shares no line with another object.
func TestWireOwnsItsLine(t *testing.T) {
	if size := unsafe.Sizeof(Wire{}); size != 64 {
		t.Errorf("sizeof(Wire) = %d, want one 64-byte line", size)
	}
}

// TestWireDelayShrinkOvertakes: a wire is a delay, not a queue. After the
// delay shrinks mid-run, packets sent later overtake the ones still in
// flight, same-instant arrivals
// keep their sending order, and once the delay is restored new packets
// queue behind the old ones again: each packet arrives at exactly
// send time + the delay in force when it was sent.
func TestWireDelayShrinkOvertakes(t *testing.T) {
	s := sim.New(1)
	var got []arrival
	w := &Wire{S: s, Delay: 10 * sim.Millisecond, Dst: packet.NodeFunc(func(p *packet.Packet) {
		got = append(got, arrival{p.Seq, s.Now()})
		p.Release()
	})}
	send := func(seq int64) { w.Recv(packet.NewData(1, seq, packet.MTU, s.Now())) }
	send(0) // arrives at 10 ms
	s.RunUntil(sim.Millisecond)
	send(1) // arrives at 11 ms
	w.Delay = 2 * sim.Millisecond
	send(2) // arrives at 3 ms: overtakes 0 and 1
	send(3) // arrives at 3 ms, behind 2
	s.RunUntil(2 * sim.Millisecond)
	w.Delay = 10 * sim.Millisecond
	send(4) // arrives at 12 ms
	w.Delay = 9 * sim.Millisecond
	send(5) // arrives at 11 ms, behind 1 (sent later)
	s.Run()
	checkArrivals(t, got, []arrival{
		{2, 3 * sim.Millisecond}, {3, 3 * sim.Millisecond}, {0, 10 * sim.Millisecond},
		{1, 11 * sim.Millisecond}, {5, 11 * sim.Millisecond}, {4, 12 * sim.Millisecond},
	})
}

func TestTraceLinkDeliversAtTraceRate(t *testing.T) {
	s := sim.New(1)
	tr := trace.Constant("c", 12e6)
	sink := &packet.Sink{}
	link := NewTraceLink(s, tr, qdisc.NewDropTail(0), sink)
	// Saturate: inject 2000 packets at t=0.
	for i := int64(0); i < 2000; i++ {
		link.Recv(packet.NewData(1, i, packet.MTU, 0))
	}
	s.RunUntil(sim.Second)
	// 12 Mbit/s for 1 s = 1000 packets.
	if sink.Count < 950 || sink.Count > 1050 {
		t.Errorf("delivered %d packets in 1 s at 12 Mbit/s", sink.Count)
	}
	if link.DeliveredBytes() != int64(sink.Count)*packet.MTU {
		t.Errorf("DeliveredBytes %d != %d", link.DeliveredBytes(), sink.Count*packet.MTU)
	}
}

func TestTraceLinkWastesIdleOpportunities(t *testing.T) {
	s := sim.New(1)
	tr := trace.Constant("c", 12e6)
	sink := &packet.Sink{}
	link := NewTraceLink(s, tr, qdisc.NewDropTail(0), sink)
	// One packet injected at 500 ms: missed earlier opportunities are
	// gone (Mahimahi semantics), the packet leaves at the next one.
	s.At(500*sim.Millisecond, func() {
		link.Recv(packet.NewData(1, 0, packet.MTU, s.Now()))
	})
	s.RunUntil(sim.Second)
	if sink.Count != 1 {
		t.Fatalf("delivered %d", sink.Count)
	}
	if sink.Last.QueueDelay > 2*sim.Millisecond {
		t.Errorf("queue delay %v for an idle link", sink.Last.QueueDelay)
	}
}

func TestTraceLinkAccumulatesQueueDelay(t *testing.T) {
	s := sim.New(1)
	tr := trace.Constant("c", 1.2e6) // 100 pkt/s: 10 ms per packet
	var delays []sim.Time
	link := NewTraceLink(s, tr, qdisc.NewDropTail(0), packet.NodeFunc(func(p *packet.Packet) {
		delays = append(delays, p.QueueDelay)
	}))
	for i := int64(0); i < 5; i++ {
		link.Recv(packet.NewData(1, i, packet.MTU, 0))
	}
	s.RunUntil(sim.Second)
	if len(delays) != 5 {
		t.Fatalf("delivered %d", len(delays))
	}
	// Later packets wait longer behind the head-of-line.
	for i := 1; i < len(delays); i++ {
		if delays[i] <= delays[i-1] {
			t.Errorf("queue delay not increasing: %v", delays)
		}
	}
}

func TestTraceLinkCapacityProviderLookahead(t *testing.T) {
	s := sim.New(1)
	tr := trace.SquareWave("sq", 1e6, 20e6, 500*sim.Millisecond)
	link := NewTraceLink(s, tr, qdisc.NewDropTail(0), &packet.Sink{})
	// Standing just before the high→low edge, the trailing window sees
	// high capacity...
	past := link.CapacityBps(490 * sim.Millisecond)
	link.Lookahead = 100 * sim.Millisecond
	future := link.CapacityBps(490 * sim.Millisecond)
	if future >= past {
		t.Errorf("lookahead capacity %.1f should fall below trailing %.1f", future/1e6, past/1e6)
	}
}

func TestRateLinkServiceTime(t *testing.T) {
	s := sim.New(1)
	sink := &packet.Sink{}
	var done sim.Time
	link := NewRateLink(s, ConstRate(12e6), qdisc.NewDropTail(0), packet.NodeFunc(func(p *packet.Packet) {
		done = s.Now()
		sink.Recv(p)
	}))
	link.Recv(packet.NewData(1, 0, packet.MTU, 0))
	s.Run()
	want := sim.FromSeconds(1500 * 8 / 12e6) // 1 ms
	if done != want {
		t.Errorf("service time %v, want %v", done, want)
	}
}

func TestRateLinkBackToBack(t *testing.T) {
	s := sim.New(1)
	count := 0
	link := NewRateLink(s, ConstRate(12e6), qdisc.NewDropTail(0), packet.NodeFunc(func(p *packet.Packet) {
		count++
	}))
	for i := int64(0); i < 100; i++ {
		link.Recv(packet.NewData(1, i, packet.MTU, 0))
	}
	s.RunUntil(99500 * sim.Microsecond) // 99.5 ms: 99 packets done
	if count != 99 {
		t.Errorf("delivered %d in 99.5 ms, want 99", count)
	}
	s.Run()
	if count != 100 {
		t.Errorf("final count %d", count)
	}
}

func TestReceiverCumulativeAck(t *testing.T) {
	s := sim.New(1)
	var acks []*packet.Packet
	out := packet.NodeFunc(func(p *packet.Packet) { acks = append(acks, p) })
	r := NewReceiver(s, 1, out)
	// In order 0,1 then gap (3), then fill (2).
	for _, seq := range []int64{0, 1, 3, 2} {
		r.Recv(packet.NewData(1, seq, packet.MTU, 0))
	}
	if len(acks) != 4 {
		t.Fatalf("acks = %d", len(acks))
	}
	wantCum := []int64{1, 2, 2, 4}
	for i, a := range acks {
		if a.CumAck != wantCum[i] {
			t.Errorf("ack %d cum = %d, want %d", i, a.CumAck, wantCum[i])
		}
	}
	if r.CumAck() != 4 {
		t.Errorf("final cum = %d", r.CumAck())
	}
}

// Reset readies a receiver for another flow as NewReceiver would and
// keeps its OnData hook: the old flow's out-of-order arrivals are
// forgotten, so the new flow acknowledges from sequence 0 on its own.
func TestReceiverResetKeepsOnData(t *testing.T) {
	s := sim.New(1)
	var cum []int64
	out := packet.NodeFunc(func(p *packet.Packet) { cum = append(cum, p.CumAck) })
	seen := 0
	r := NewReceiver(s, 1, out)
	r.OnData = func(sim.Time, *packet.Packet) { seen++ }
	r.Recv(packet.NewData(1, 1, packet.MTU, 0)) // 1 waits for 0
	r.Reset(s, 2, out)
	r.Recv(packet.NewData(1, 0, packet.MTU, 0)) // the old flow's: misrouted
	r.Recv(packet.NewData(2, 0, packet.MTU, 0))
	if r.Flow != 2 || r.Delivered != 1 || seen != 2 {
		t.Errorf("after Reset: flow %d, delivered %d, OnData saw %d; want 2, 1, 2", r.Flow, r.Delivered, seen)
	}
	if want := []int64{0, 1}; len(cum) != 2 || cum[0] != want[0] || cum[1] != want[1] {
		t.Errorf("cumulative ACKs %v, want %v", cum, want)
	}
}

func TestReceiverEchoesMarks(t *testing.T) {
	s := sim.New(1)
	var last *packet.Packet
	r := NewReceiver(s, 1, packet.NodeFunc(func(p *packet.Packet) { last = p }))
	p := packet.NewData(1, 0, packet.MTU, 0)
	p.ECN = packet.Brake
	r.Recv(p)
	if last == nil || !last.EchoValid || last.EchoAccel {
		t.Errorf("brake echo wrong: %+v", last)
	}
}

func TestReceiverIgnoresWrongFlowAndAcks(t *testing.T) {
	s := sim.New(1)
	count := 0
	r := NewReceiver(s, 1, packet.NodeFunc(func(*packet.Packet) { count++ }))
	var books packet.Tally
	p := books.NewData(2, 0, packet.MTU, 0) // wrong flow
	r.Recv(p)
	a := books.NewData(1, 0, packet.MTU, 0)
	a.IsAck = true
	r.Recv(a) // an ACK
	if count != 0 || r.Delivered != 0 {
		t.Errorf("receiver accepted foreign traffic: count=%d", count)
	}
	if b := books.Books(); b.Released[packet.Misrouted] != 2 || b.Live() != 0 {
		t.Errorf("misrouted = %d, live = %d; want both packets ended misrouted", b.Released[packet.Misrouted], b.Live())
	}
}

func TestTraceLinkHighRateMultiOpportunity(t *testing.T) {
	s := sim.New(1)
	// 36 Mbit/s = 3 opportunities per ms sharing timestamps.
	tr := trace.Constant("fast", 36e6)
	sink := &packet.Sink{}
	link := NewTraceLink(s, tr, qdisc.NewDropTail(0), sink)
	for i := int64(0); i < 5000; i++ {
		link.Recv(packet.NewData(1, i, packet.MTU, 0))
	}
	s.RunUntil(sim.Second)
	want := 36e6 / 8 / packet.MTU
	if math.Abs(float64(sink.Count)-want)/want > 0.05 {
		t.Errorf("delivered %d packets, want ≈ %.0f", sink.Count, want)
	}
}

// TestTraceLinkIdleAcrossPeriods drains a trace link, leaves it idle for
// more than three periods, refills it from another point of the period,
// and checks every delivery against the trace itself: each burst starts at
// the first opportunity after its packets arrived, continues on
// consecutive opportunities, and an instant that carries k opportunities
// delivers k packets. The link keeps its place in the trace between
// queries, so this is the sequence (short steps, a long jump, short steps)
// that has to give what looking each instant up from scratch gives.
func TestTraceLinkIdleAcrossPeriods(t *testing.T) {
	ms := sim.Millisecond
	// Irregular spacing, a doubled timestamp, opportunities on the first
	// and last instants of the 50 ms period, and a capacity query stream
	// on the same link as the router would make.
	tr, err := trace.New("gaps", []sim.Time{
		0, 3 * ms, 3 * ms, 4 * ms, 17*ms + 250, 30 * ms, 30 * ms, 30 * ms, 41 * ms, 50*ms - 1,
	}, 50*ms)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	var got []sim.Time
	link := NewTraceLink(s, tr, qdisc.NewDropTail(0), packet.NodeFunc(func(p *packet.Packet) {
		got = append(got, s.Now())
		p.Release()
	}))
	var want []sim.Time
	burst := func(at sim.Time, n int) {
		s.At(at, func() {
			for i := 0; i < n; i++ {
				link.Recv(packet.NewData(1, int64(i), packet.MTU, at))
			}
			if c, w := link.CapacityBps(at), tr.CapacityBps(at, link.CapWindow); at >= link.CapWindow && c != w {
				t.Errorf("CapacityBps(%v) = %v, trace says %v", at, c, w)
			}
		})
		for now, left := at, n; left > 0; {
			now = tr.NextOpportunity(now)
			for k := tr.CountIn(now, now+1); k > 0 && left > 0; k-- {
				want = append(want, now)
				left--
			}
		}
	}
	burst(2*ms, 13)                // drains at 52 ms, early in the second period
	burst(52*ms+3*50*ms+26*ms, 12) // 3.5 periods later, mid-period
	burst(1000*ms-1, 3)            // on the last instant of a period
	s.RunUntil(2 * sim.Second)
	if len(got) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d at %v, the trace's opportunity is at %v\n got  %v\n want %v", i, got[i], want[i], got, want)
		}
	}
}
