package cc

import (
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
)

// lossyPipe connects an endpoint to a receiver-like echo with a fixed
// one-way delay, optionally dropping chosen data sequence numbers once.
type lossyPipe struct {
	s       *sim.Simulator
	ep      *Endpoint
	delay   sim.Time
	dropSet map[int64]bool
	// bps, if positive, serialises data packets through a bottleneck of
	// that rate ahead of the delay.
	bps       float64
	busyUntil sim.Time
	// extra, if set, adds forward delay to a data packet.
	extra func(now sim.Time, p *packet.Packet) sim.Time
	// Delivered counts data packets that survived.
	Delivered int64
	cum       int64
	pending   map[int64]bool
}

func newLossyPipe(s *sim.Simulator, delay sim.Time) *lossyPipe {
	return &lossyPipe{s: s, delay: delay, dropSet: map[int64]bool{}, pending: map[int64]bool{}}
}

// Recv implements packet.Node for data packets from the endpoint.
func (lp *lossyPipe) Recv(p *packet.Packet) {
	if lp.dropSet[p.Seq] && !p.Retx {
		delete(lp.dropSet, p.Seq) // drop once
		return
	}
	now, d := lp.s.Now(), lp.delay
	if lp.bps > 0 {
		if lp.busyUntil < now {
			lp.busyUntil = now
		}
		lp.busyUntil += sim.FromSeconds(float64(p.Size*8) / lp.bps)
		d += lp.busyUntil - now
	}
	if lp.extra != nil {
		d += lp.extra(now, p)
	}
	lp.s.After(d, func() {
		lp.Delivered++
		// Cumulative-ack bookkeeping like a real receiver.
		if p.Seq == lp.cum {
			lp.cum++
			for lp.pending[lp.cum] {
				delete(lp.pending, lp.cum)
				lp.cum++
			}
		} else if p.Seq > lp.cum {
			lp.pending[p.Seq] = true
		}
		ack := packet.NewAck(p, lp.cum, lp.s.Now())
		lp.s.After(lp.delay, func() { lp.ep.Recv(ack) })
	})
}

// fixedWindow is a trivial Algorithm with a constant window.
type fixedWindow struct {
	w          float64
	congestion int
	rtos       int
}

func (f *fixedWindow) OnAck(sim.Time, *Endpoint, AckInfo) {}
func (f *fixedWindow) OnCongestion(sim.Time, *Endpoint)   { f.congestion++ }
func (f *fixedWindow) OnRTO(sim.Time, *Endpoint)          { f.rtos++ }
func (f *fixedWindow) CwndPkts() float64                  { return f.w }
func (f *fixedWindow) Reset()                             { f.congestion, f.rtos = 0, 0 }

func TestEndpointWindowLimitsInflight(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 20*sim.Millisecond)
	alg := &fixedWindow{w: 5}
	ep := NewEndpoint(s, 0, pipe, alg)
	pipe.ep = ep
	ep.Start()
	s.RunUntil(10 * sim.Millisecond) // before any ACK returns
	if got := ep.Inflight(); got != 5 {
		t.Errorf("inflight = %d, want 5", got)
	}
	s.RunUntil(2 * sim.Second)
	if ep.Inflight() > 5 {
		t.Errorf("inflight %d exceeded window", ep.Inflight())
	}
	if ep.LostPackets != 0 {
		t.Errorf("lost %d packets on a clean path", ep.LostPackets)
	}
}

func TestEndpointRTTEstimation(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 25*sim.Millisecond)
	ep := NewEndpoint(s, 0, pipe, &fixedWindow{w: 4})
	pipe.ep = ep
	ep.Start()
	s.RunUntil(3 * sim.Second)
	want := 50 * sim.Millisecond
	if d := ep.SRTT() - want; d < -sim.Millisecond || d > 5*sim.Millisecond {
		t.Errorf("srtt = %v, want ≈ %v", ep.SRTT(), want)
	}
	if ep.MinRTT() < want || ep.MinRTT() > want+sim.Millisecond {
		t.Errorf("minRTT = %v", ep.MinRTT())
	}
}

func TestEndpointFastRetransmit(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 20*sim.Millisecond)
	pipe.dropSet[7] = true
	alg := &fixedWindow{w: 10}
	ep := NewEndpoint(s, 0, pipe, alg)
	pipe.ep = ep
	ep.Start()
	s.RunUntil(3 * sim.Second)
	if ep.LostPackets != 1 {
		t.Errorf("lost = %d, want 1", ep.LostPackets)
	}
	if ep.RetxPackets != 1 {
		t.Errorf("retx = %d, want 1", ep.RetxPackets)
	}
	if alg.congestion != 1 {
		t.Errorf("congestion events = %d, want 1", alg.congestion)
	}
	if alg.rtos != 0 {
		t.Errorf("RTOs = %d, want 0 (dup-ack recovery)", alg.rtos)
	}
}

func TestEndpointCongestionEventPerWindow(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 20*sim.Millisecond)
	// Drop a burst within one window: one congestion event.
	pipe.dropSet[5] = true
	pipe.dropSet[6] = true
	pipe.dropSet[8] = true
	alg := &fixedWindow{w: 12}
	ep := NewEndpoint(s, 0, pipe, alg)
	pipe.ep = ep
	ep.Start()
	s.RunUntil(3 * sim.Second)
	if ep.LostPackets != 3 {
		t.Errorf("lost = %d, want 3", ep.LostPackets)
	}
	if alg.congestion != 1 {
		t.Errorf("congestion events = %d, want 1 for same-window losses", alg.congestion)
	}
}

func TestEndpointRTOOnBlackout(t *testing.T) {
	s := sim.New(1)
	// A pipe that swallows everything after the first 5 packets.
	swallowAfter := int64(5)
	pipe := newLossyPipe(s, 20*sim.Millisecond)
	alg := &fixedWindow{w: 8}
	ep := NewEndpoint(s, 0, pipe, alg)
	pipe.ep = ep
	// Wrap: drop all data with seq >= swallowAfter (always, incl. retx)
	// for the first 1.5 seconds.
	inner := packet.Node(pipe)
	ep.Out = packet.NodeFunc(func(p *packet.Packet) {
		if p.Seq >= swallowAfter && s.Now() < 1500*sim.Millisecond {
			return
		}
		inner.Recv(p)
	})
	ep.Start()
	s.RunUntil(5 * sim.Second)
	if alg.rtos == 0 {
		t.Error("no RTO during blackout")
	}
	// After the blackout everything must eventually be delivered.
	if pipe.cum < 20 {
		t.Errorf("cum ack %d: transfer did not resume after blackout", pipe.cum)
	}
}

func TestEndpointCEEchoTriggersCongestion(t *testing.T) {
	s := sim.New(1)
	alg := &fixedWindow{w: 4}
	var ep *Endpoint
	echo := packet.NodeFunc(func(p *packet.Packet) {
		p.ECN = packet.CE // bottleneck marks every packet
		ack := packet.NewAck(p, p.Seq+1, s.Now())
		s.After(10*sim.Millisecond, func() { ep.Recv(ack) })
	})
	ep = NewEndpoint(s, 0, echo, alg)
	ep.Start()
	s.RunUntil(300 * sim.Millisecond)
	if alg.congestion == 0 {
		t.Error("CE echoes never signalled congestion")
	}
	if ep.CEEchoes == 0 {
		t.Error("CE echo counter not incremented")
	}
	// And at most one event per window: far fewer events than ACKs.
	if int64(alg.congestion) > ep.AckedPackets/2 {
		t.Errorf("congestion %d times for %d acks", alg.congestion, ep.AckedPackets)
	}
}

func TestEndpointFiniteSourceCompletes(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 10*sim.Millisecond)
	ep := NewEndpoint(s, 0, pipe, &fixedWindow{w: 4})
	pipe.ep = ep
	ep.Src = NewFixed(10 * packet.MTU)
	done := sim.Time(-1)
	ep.OnComplete = func(now sim.Time) { done = now }
	ep.Start()
	s.RunUntil(5 * sim.Second)
	if done < 0 {
		t.Fatal("OnComplete never fired")
	}
	if pipe.Delivered != 10 {
		t.Errorf("delivered %d packets, want 10", pipe.Delivered)
	}
	if ep.SentPackets != 10 {
		t.Errorf("sent %d, want 10", ep.SentPackets)
	}
}

func TestEndpointRateLimitedSourcePaces(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 10*sim.Millisecond)
	ep := NewEndpoint(s, 0, pipe, &fixedWindow{w: 100})
	pipe.ep = ep
	ep.Src = NewRateLimited(1.2e6) // 100 pkt/s
	ep.Start()
	s.RunUntil(4 * sim.Second)
	rate := float64(pipe.Delivered) / 4
	if rate < 70 || rate > 110 {
		t.Errorf("delivery rate %.0f pkt/s, want ≈ 100", rate)
	}
}

func TestEndpointStopHaltsTraffic(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 10*sim.Millisecond)
	ep := NewEndpoint(s, 0, pipe, &fixedWindow{w: 4})
	pipe.ep = ep
	ep.Start()
	s.RunUntil(500 * sim.Millisecond)
	sent, inflight := ep.SentPackets, ep.Inflight()
	ep.Stop()
	s.RunUntil(2 * sim.Second)
	if ep.SentPackets != sent {
		t.Errorf("sent %d more packets after Stop", ep.SentPackets-sent)
	}
	// The ACKs of what was in flight reach a stopped endpoint and end
	// late; so does a data packet, which no endpoint takes: misrouted.
	if late := ep.Tally.Books().Released[packet.Late]; late != int64(inflight) || inflight == 0 {
		t.Errorf("late ACKs = %d, want the %d packets in flight at Stop", late, inflight)
	}
	stray := ep.Tally.NewData(0, 0, packet.MTU, s.Now())
	ep.Recv(stray)
	if b := ep.Tally.Books(); b.Released[packet.Misrouted] != 1 || b.Released[packet.Late] != int64(inflight) {
		t.Errorf("misrouted = %d, late = %d after a stray data packet", b.Released[packet.Misrouted], b.Released[packet.Late])
	}
}

func TestOnOffSource(t *testing.T) {
	src := &OnOff{Start: sim.Second, OnFor: sim.Second, OffFor: sim.Second}
	cases := []struct {
		at   sim.Time
		want bool
	}{
		{0, false},
		{1500 * sim.Millisecond, true},
		{2500 * sim.Millisecond, false},
		{3500 * sim.Millisecond, true},
	}
	for _, c := range cases {
		if got := src.Available(c.at); got != c.want {
			t.Errorf("Available(%v) = %v", c.at, got)
		}
	}
}

func TestGatedSource(t *testing.T) {
	g := &Gated{}
	if g.Available(0) {
		t.Error("closed gate available")
	}
	g.On = true
	if !g.Available(0) {
		t.Error("open gate unavailable")
	}
	if g.Done() {
		t.Error("gated source should never report done")
	}
}

func TestEndpointStopBeforeFirstPacket(t *testing.T) {
	// Flow lifetime edge: Stop fires before Start (a Spec with Stop <
	// Start). The endpoint must never transmit and must not panic.
	s := sim.New(1)
	pipe := newLossyPipe(s, 10*sim.Millisecond)
	ep := NewEndpoint(s, 0, pipe, &fixedWindow{w: 4})
	pipe.ep = ep
	ep.Src = NewFixed(10 * packet.MTU)
	s.At(sim.Second, ep.Stop)
	s.At(2*sim.Second, ep.Start)
	s.RunUntil(5 * sim.Second)
	if ep.SentPackets != 0 {
		t.Errorf("sent %d packets from a stopped-before-start flow", ep.SentPackets)
	}
	if pipe.Delivered != 0 {
		t.Errorf("delivered %d packets from a stopped-before-start flow", pipe.Delivered)
	}
}

func TestEndpointFixedDrainsExactlyAtStop(t *testing.T) {
	// Flow lifetime edge: Stop scheduled at the very instant the fixed
	// source drains. The event core runs same-instant events in insertion
	// order, and a Spec schedules Stop at setup time — so Stop runs
	// before the final ACK's delivery event and deterministically wins
	// the tie: the completion is suppressed, nothing panics, and no
	// packet is sent twice. One nanosecond later and the completion
	// fires. Both orderings are pinned here.
	run := func(stopAt sim.Time) (completions int, done sim.Time, sent int64) {
		s := sim.New(1)
		pipe := newLossyPipe(s, 10*sim.Millisecond)
		ep := NewEndpoint(s, 0, pipe, &fixedWindow{w: 4})
		pipe.ep = ep
		ep.Src = NewFixed(10 * packet.MTU)
		ep.OnComplete = func(now sim.Time) { completions++; done = now }
		if stopAt > 0 {
			s.At(stopAt, ep.Stop)
		}
		ep.Start()
		s.RunUntil(5 * sim.Second)
		return completions, done, ep.SentPackets
	}
	n, done, sent := run(0)
	if n != 1 || done <= 0 || sent != 10 {
		t.Fatalf("baseline run: %d completions at %v, %d sent", n, done, sent)
	}
	n2, _, sent2 := run(done)
	if n2 != 0 {
		t.Errorf("stop exactly at drain: %d completions, want 0 (Stop wins the tie)", n2)
	}
	if sent2 != 10 {
		t.Errorf("stop exactly at drain sent %d packets, want 10", sent2)
	}
	n3, done3, sent3 := run(done + 1)
	if n3 != 1 || done3 != done || sent3 != 10 {
		t.Errorf("stop after drain: %d completions at %v (%d sent), want 1 at %v",
			n3, done3, sent3, done)
	}
}

func TestEndpointBeginTransferReArmsCompletion(t *testing.T) {
	// Persistent application flows: a second transfer queued after the
	// first completes must re-fire OnComplete (BeginTransfer re-arms it).
	s := sim.New(1)
	pipe := newLossyPipe(s, 10*sim.Millisecond)
	ep := NewEndpoint(s, 0, pipe, &fixedWindow{w: 4})
	pipe.ep = ep
	src := &Fixed{Remaining: 5 * packet.MTU}
	ep.Src = src
	var completions []sim.Time
	ep.OnComplete = func(now sim.Time) {
		completions = append(completions, now)
		if len(completions) == 1 {
			src.Remaining += 5 * packet.MTU
			ep.BeginTransfer()
		}
	}
	ep.Start()
	s.RunUntil(5 * sim.Second)
	if len(completions) != 2 {
		t.Fatalf("%d completions, want 2 (one per transfer)", len(completions))
	}
	if completions[1] <= completions[0] {
		t.Errorf("second completion %v not after first %v", completions[1], completions[0])
	}
	if ep.SentPackets != 10 {
		t.Errorf("sent %d packets, want 10 across both transfers", ep.SentPackets)
	}
}

// Init readies a used endpoint exactly as NewEndpoint builds a new one: a
// transfer with losses run on an endpoint that has carried one already
// (its ring grown, its retransmission queue used) sends the same packets
// at the same instants and completes at the same time.
func TestEndpointInitMatchesNew(t *testing.T) {
	type tx struct {
		at   sim.Time
		seq  int64
		retx bool
	}
	run := func(ep *Endpoint) (*Endpoint, []tx, sim.Time) {
		s := sim.New(1)
		pipe := newLossyPipe(s, 20*sim.Millisecond)
		for _, seq := range []int64{5, 40, 41, 42} {
			pipe.dropSet[seq] = true
		}
		var log []tx
		out := packet.NodeFunc(func(p *packet.Packet) {
			log = append(log, tx{s.Now(), p.Seq, p.Retx})
			pipe.Recv(p)
		})
		if ep == nil {
			ep = NewEndpoint(s, 3, out, &fixedWindow{w: 64})
		} else {
			ep.Init(s, 3, out, &fixedWindow{w: 64})
		}
		pipe.ep = ep
		ep.Src = NewFixed(300 * packet.MTU)
		done := sim.Time(-1)
		ep.OnComplete = func(now sim.Time) {
			done = now
			ep.Stop()
		}
		ep.Start()
		s.RunUntil(10 * sim.Second)
		return ep, log, done
	}
	ep, fresh, freshDone := run(nil)
	if len(ep.ring) == initialRing || cap(ep.lostQueue) == 0 || ep.RetxPackets != 4 || freshDone < 0 {
		t.Fatalf("ring %d slots, lost queue capacity %d, %d retransmissions, done at %v: the first transfer must grow the ring, retransmit 4 and complete",
			len(ep.ring), cap(ep.lostQueue), ep.RetxPackets, freshDone)
	}
	_, reused, reusedDone := run(ep)
	if reusedDone != freshDone || len(reused) != len(fresh) {
		t.Fatalf("reused endpoint: %d transmissions, done at %v; a new one: %d, done at %v", len(reused), reusedDone, len(fresh), freshDone)
	}
	for i := range fresh {
		if reused[i] != fresh[i] {
			t.Fatalf("transmission %d: reused endpoint %+v, new one %+v", i, reused[i], fresh[i])
		}
	}
}
