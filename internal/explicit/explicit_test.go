package explicit

import (
	"math"
	"testing"

	"abc/internal/cc"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

func dataWithXCP(seq int64, cwndBytes float64, rtt sim.Time) *packet.Packet {
	p := packet.NewData(1, seq, packet.MTU, 0)
	p.XCP = packet.XCPHeader{CwndBytes: cwndBytes, RTT: rtt, Feedback: packet.MTU, Valid: true}
	return p
}

func TestXCPRouterPositiveFeedbackWhenUnderutilized(t *testing.T) {
	x := NewXCPRouter(DefaultXCPConfig())
	x.SetCapacityProvider(func(sim.Time) float64 { return 20e6 })
	now := sim.Time(0)
	// Offer 5 Mbit/s into a 20 Mbit/s link for a while.
	gap := sim.FromSeconds(float64(packet.MTU*8) / 5e6)
	var fb float64
	for i := int64(0); i < 500; i++ {
		now += gap
		x.Enqueue(now, dataWithXCP(i, 30000, 100*sim.Millisecond))
		p := x.Dequeue(now)
		if p != nil && i > 250 {
			fb = p.XCP.Feedback
		}
	}
	if fb <= 0 {
		t.Errorf("feedback %.1f should be positive on an underutilized link", fb)
	}
}

func TestXCPRouterNegativeFeedbackWhenOverloaded(t *testing.T) {
	cfg := DefaultXCPConfig()
	cfg.Limit = 0
	x := NewXCPRouter(cfg)
	x.SetCapacityProvider(func(sim.Time) float64 { return 5e6 })
	now := sim.Time(0)
	// Offer 20 Mbit/s into 5 Mbit/s: drain at capacity.
	inGap := sim.FromSeconds(float64(packet.MTU*8) / 20e6)
	var fb float64
	drain := sim.Time(0)
	for i := int64(0); i < 3000; i++ {
		now += inGap
		x.Enqueue(now, dataWithXCP(i, 30000, 100*sim.Millisecond))
		for drain < now {
			drain += sim.FromSeconds(float64(packet.MTU*8) / 5e6)
			if p := x.Dequeue(drain); p != nil && i > 1500 {
				fb = p.XCP.Feedback
			}
		}
	}
	if fb >= 0 {
		t.Errorf("feedback %.1f should be negative under overload", fb)
	}
}

func TestXCPRouterOnlyReducesFeedback(t *testing.T) {
	x := NewXCPRouter(DefaultXCPConfig())
	x.SetCapacityProvider(func(sim.Time) float64 { return 100e6 })
	p := dataWithXCP(0, 30000, 100*sim.Millisecond)
	p.XCP.Feedback = 10 // upstream router allowed only 10 bytes
	x.Enqueue(0, p)
	q := x.Dequeue(0)
	if q.XCP.Feedback > 10 {
		t.Errorf("feedback increased to %.1f along the path", q.XCP.Feedback)
	}
}

func TestXCPSenderAppliesFeedback(t *testing.T) {
	s := NewXCPSender()
	w0 := s.CwndPkts()
	ack := &packet.Packet{IsAck: true, XCP: packet.XCPHeader{Feedback: 3000, Valid: true}}
	s.OnAck(0, nil, cc.AckInfo{Ack: ack, AckedBytes: packet.MTU})
	if got := s.CwndPkts(); math.Abs(got-(w0+2)) > 1e-9 {
		t.Errorf("cwnd %v, want %v", got, w0+2)
	}
	// Negative feedback shrinks but never below one packet.
	ack.XCP.Feedback = -1e9
	s.OnAck(0, nil, cc.AckInfo{Ack: ack, AckedBytes: packet.MTU})
	if got := s.CwndPkts(); got != 1 {
		t.Errorf("cwnd %v, want floor 1", got)
	}
}

func TestXCPSenderStampsHeader(t *testing.T) {
	s := NewXCPSender()
	e := cc.NewEndpoint(sim.New(1), 1, packet.NodeFunc(func(*packet.Packet) {}), s)
	p := packet.NewData(1, 0, packet.MTU, 0)
	s.StampData(0, e, p)
	if !p.XCP.Valid || p.XCP.CwndBytes <= 0 || p.XCP.Feedback != packet.MTU {
		t.Errorf("header: %+v", p.XCP)
	}
}

func TestRCPRouterConvergesToCapacity(t *testing.T) {
	r := NewRCPRouter(qdisc.DefaultBuffer)
	mu := 10e6
	r.SetCapacityProvider(func(sim.Time) float64 { return mu })
	now := sim.Time(0)
	// Single flow obeying the stamped rate: feed at the stamped rate.
	rate := 1e6
	var stamped float64
	for step := 0; step < 20000; step++ {
		gap := sim.FromSeconds(float64(packet.MTU*8) / rate)
		now += gap
		r.Enqueue(now, packet.NewData(1, int64(step), packet.MTU, now))
		if p := r.Dequeue(now); p != nil && p.RCPRate > 0 {
			stamped = p.RCPRate
			rate = p.RCPRate // the flow adopts the stamp
			if rate < 1e5 {
				rate = 1e5
			}
		}
	}
	if math.Abs(stamped-mu)/mu > 0.3 {
		t.Errorf("RCP rate %.1f Mbit/s did not converge near capacity %.1f", stamped/1e6, mu/1e6)
	}
}

func TestRCPRouterStampsMinimum(t *testing.T) {
	r := NewRCPRouter(qdisc.DefaultBuffer)
	r.SetCapacityProvider(func(sim.Time) float64 { return 10e6 })
	p := packet.NewData(1, 0, packet.MTU, 0)
	p.RCPRate = 1000 // upstream stamped a tiny rate
	r.Enqueue(0, p)
	q := r.Dequeue(0)
	if q.RCPRate > 1000 {
		t.Errorf("rate raised to %.0f along the path", q.RCPRate)
	}
}

func TestRCPSenderPacesAtStampedRate(t *testing.T) {
	s := NewRCPSender()
	ack := &packet.Packet{IsAck: true, RCPRate: 7e6}
	s.OnAck(0, nil, cc.AckInfo{Ack: ack, AckedBytes: packet.MTU})
	rate, ok := s.PacingRate(0)
	if !ok || rate != 7e6 {
		t.Errorf("pacing %v/%v", rate, ok)
	}
	if s.CwndPkts() < 4 {
		t.Error("window cap below floor")
	}
}

// TestRCPSenderIgnoresStaleAckRate: an ACK that acknowledges nothing new
// (a duplicate, or one that drained late off an abandoned ACK path after
// a mid-run reroute) must not override the current path's stamped rate —
// otherwise the old path's congestion state poisons the new one.
func TestRCPSenderIgnoresStaleAckRate(t *testing.T) {
	s := NewRCPSender()
	fresh := &packet.Packet{IsAck: true, RCPRate: 7e6}
	s.OnAck(0, nil, cc.AckInfo{Ack: fresh, AckedBytes: packet.MTU})
	stale := &packet.Packet{IsAck: true, RCPRate: 0.2e6}
	s.OnAck(0, nil, cc.AckInfo{Ack: stale, AckedBytes: 0})
	if rate, _ := s.PacingRate(0); rate != 7e6 {
		t.Errorf("stale ACK overrode the rate: %v, want 7e6", rate)
	}
}

func TestVCPRouterLoadCodes(t *testing.T) {
	v := NewVCPRouter(qdisc.DefaultBuffer)
	mu := 10e6
	v.SetCapacityProvider(func(sim.Time) float64 { return mu })
	now := sim.Time(0)
	run := func(offered float64, steps int) uint8 {
		var code uint8
		gap := sim.FromSeconds(float64(packet.MTU*8) / offered)
		for i := 0; i < steps; i++ {
			now += gap
			v.Enqueue(now, packet.NewData(1, int64(i), packet.MTU, now))
			if p := v.Dequeue(now); p != nil {
				code = p.VCPLoad
			}
		}
		return code
	}
	if code := run(2e6, 3000); code != vcpLow {
		t.Errorf("20%% load coded %d, want low(%d)", code, vcpLow)
	}
	if code := run(9e6, 3000); code != vcpHigh {
		t.Errorf("90%% load coded %d, want high(%d)", code, vcpHigh)
	}
	// Overload: arrivals exceed capacity (queue builds since we dequeue
	// one per enqueue at the offered pace).
	if code := run(30e6, 3000); code != vcpOverload {
		t.Errorf("300%% load coded %d, want overload(%d)", code, vcpOverload)
	}
}

func TestVCPRouterCodeOnlyIncreases(t *testing.T) {
	v := NewVCPRouter(qdisc.DefaultBuffer)
	v.SetCapacityProvider(func(sim.Time) float64 { return 100e6 })
	p := packet.NewData(1, 0, packet.MTU, 0)
	p.VCPLoad = vcpOverload // upstream says overload
	v.Enqueue(0, p)
	q := v.Dequeue(0)
	if q.VCPLoad != vcpOverload {
		t.Errorf("code lowered to %d", q.VCPLoad)
	}
}

func TestVCPSenderMIAIMD(t *testing.T) {
	s := NewVCPSender()
	mk := func(code uint8) cc.AckInfo {
		return cc.AckInfo{Ack: &packet.Packet{IsAck: true, VCPLoad: code}, AckedBytes: packet.MTU}
	}
	w0 := s.CwndPkts()
	for i := 0; i < 100; i++ {
		s.OnAck(0, nil, mk(vcpLow))
	}
	afterMI := s.CwndPkts()
	if afterMI <= w0 {
		t.Error("MI did not grow")
	}
	for i := 0; i < 100; i++ {
		s.OnAck(sim.Second, nil, mk(vcpHigh))
	}
	afterAI := s.CwndPkts()
	if afterAI <= afterMI {
		t.Error("AI did not grow")
	}
	s.OnAck(2*sim.Second, nil, mk(vcpOverload))
	if got := s.CwndPkts(); math.Abs(got-afterAI*0.875) > 1e-9 {
		t.Errorf("MD: %v, want %v", got, afterAI*0.875)
	}
	// A second overload within the MD freeze period must not halve again.
	s.OnAck(2*sim.Second+10*sim.Millisecond, nil, mk(vcpOverload))
	if got := s.CwndPkts(); math.Abs(got-afterAI*0.875) > 1e-9 {
		t.Errorf("MD applied twice within the freeze period: %v", got)
	}
}

func TestMeterRate(t *testing.T) {
	m := qdisc.RateMeter{Window: 100 * sim.Millisecond}
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		now += 10 * sim.Millisecond
		m.Add(now, 1000)
	}
	if got := m.BytesPerSec(now); math.Abs(got-100000) > 1 {
		t.Errorf("byte rate %v", got)
	}
}

// TestReversePathRouterTightensEchoedFeedback pins the reverse-channel
// contract the explicit baselines share with ABC's accel/brake echo:
// packet.NewAck copies the multi-bit headers onto the ACK verbatim, and a
// router hosted on the ACK route applies the same min/max rule it applies
// to data, so the sender obeys feedback reflecting the full round trip —
// a congested reverse edge tightens the signal instead of being an
// assumed-lossless channel.
func TestReversePathRouterTightensEchoedFeedback(t *testing.T) {
	t.Run("RCP min rate", func(t *testing.T) {
		// Saturate a 2 Mbit/s reverse-path router (2x overload) so its
		// computed rate falls well below the 8 Mbit/s the forward path
		// stamped, then route the echoing ACK through it.
		rev := NewRCPRouter(qdisc.DefaultBuffer)
		rev.SetCapacityProvider(func(sim.Time) float64 { return 2e6 })
		now := sim.Time(0)
		gap := sim.FromSeconds(float64(packet.MTU*8) / 4e6)
		for i := 0; i < 3000; i++ {
			now += gap
			rev.Enqueue(now, packet.NewData(2, int64(i), packet.MTU, now))
			rev.Dequeue(now)
		}
		data := packet.NewData(1, 7, packet.MTU, now)
		data.RCPRate = 8e6
		ack := packet.NewAck(data, 8, now)
		if ack.RCPRate != 8e6 {
			t.Fatalf("NewAck did not echo the stamped rate: %v", ack.RCPRate)
		}
		rev.Enqueue(now, ack)
		out := rev.Dequeue(now)
		if out.RCPRate <= 0 || out.RCPRate >= 8e6 {
			t.Fatalf("reverse router left the echoed rate at %.0f bit/s, want tightened below 8e6", out.RCPRate)
		}
		s := NewRCPSender()
		s.OnAck(now, nil, cc.AckInfo{Ack: out, AckedBytes: packet.MTU})
		if rate, ok := s.PacingRate(now); !ok || rate != out.RCPRate {
			t.Errorf("sender paces at %v, want the reverse-tightened %v", rate, out.RCPRate)
		}
	})
	t.Run("XCP min feedback", func(t *testing.T) {
		rev := NewXCPRouter(DefaultXCPConfig())
		rev.SetCapacityProvider(func(sim.Time) float64 { return 2e6 })
		now := sim.Time(0)
		gap := sim.FromSeconds(float64(packet.MTU*8) / 4e6)
		for i := 0; i < 3000; i++ {
			now += gap
			rev.Enqueue(now, dataWithXCP(int64(i), 30000, 100*sim.Millisecond))
			rev.Dequeue(now)
		}
		// The forward path left a positive (one-MTU) feedback; the
		// overloaded reverse router must reduce it.
		data := dataWithXCP(7, 30000, 100*sim.Millisecond)
		ack := packet.NewAck(data, 8, now)
		if !ack.XCP.Valid || ack.XCP.Feedback != packet.MTU {
			t.Fatalf("NewAck did not echo the XCP header: %+v", ack.XCP)
		}
		rev.Enqueue(now, ack)
		out := rev.Dequeue(now)
		if out.XCP.Feedback >= packet.MTU {
			t.Fatalf("reverse router left echoed feedback at %.1f, want reduced below %d", out.XCP.Feedback, packet.MTU)
		}
		s := NewXCPSender()
		before := s.CwndPkts()
		s.OnAck(now, nil, cc.AckInfo{Ack: out, AckedBytes: packet.MTU})
		if got := s.CwndPkts(); got >= before+1 {
			t.Errorf("cwnd grew to %.2f pkts despite reverse-path congestion (was %.2f)", got, before)
		}
	})
	t.Run("VCP max load", func(t *testing.T) {
		rev := NewVCPRouter(qdisc.DefaultBuffer)
		rev.SetCapacityProvider(func(sim.Time) float64 { return 10e6 })
		now := sim.Time(0)
		gap := sim.FromSeconds(float64(packet.MTU*8) / 30e6)
		for i := 0; i < 3000; i++ {
			now += gap
			rev.Enqueue(now, packet.NewData(2, int64(i), packet.MTU, now))
			rev.Dequeue(now)
		}
		data := packet.NewData(1, 7, packet.MTU, now)
		data.VCPLoad = vcpLow // forward path saw low load
		ack := packet.NewAck(data, 8, now)
		if ack.VCPLoad != vcpLow {
			t.Fatalf("NewAck did not echo the load code: %d", ack.VCPLoad)
		}
		rev.Enqueue(now, ack)
		out := rev.Dequeue(now)
		if out.VCPLoad != vcpOverload {
			t.Errorf("overloaded reverse router left load code %d, want overload(%d)", out.VCPLoad, vcpOverload)
		}
	})
}
