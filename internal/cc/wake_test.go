package cc

import (
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
)

// An endpoint schedules an event only when there is something for it to
// do: a window-limited backlogged flow on a clean path costs its
// packets' own events (two each on this pipe) and a few wakes a second
// that follow the retransmission timer out, not a hundred polls a second.
func TestEndpointEventBudget(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 50*sim.Millisecond)
	alg := &fixedWindow{w: 8}
	ep := NewEndpoint(s, 0, pipe, alg)
	pipe.ep = ep
	ep.Start()
	s.RunUntil(10 * sim.Second)
	if ep.LostPackets != 0 || alg.rtos != 0 {
		t.Fatalf("lost %d, %d RTOs on a clean path", ep.LostPackets, alg.rtos)
	}
	if ep.SentPackets < 700 {
		t.Fatalf("sent only %d packets", ep.SentPackets)
	}
	if got, max := s.Executed(), uint64(2*ep.SentPackets+100); got > max {
		t.Errorf("%d events for %d packets, want at most %d (2 a packet + 100): %d are the endpoint's own",
			got, ep.SentPackets, max, int64(got)-2*ep.SentPackets)
	}
}

// A flow that is stopped when it completes leaves nothing behind in the
// event queue: Stop cancels the pending wake.
func TestEndpointStopLeavesNothingPending(t *testing.T) {
	s := sim.New(1)
	pipe := newLossyPipe(s, 7*sim.Millisecond) // completes between two grid instants
	ep := NewEndpoint(s, 0, pipe, &fixedWindow{w: 4})
	pipe.ep = ep
	ep.Src = NewFixed(20 << 10)
	done := sim.Time(-1)
	ep.OnComplete = func(now sim.Time) {
		done = now
		ep.Stop()
	}
	ep.Start()
	for done < 0 && s.Pending() > 0 {
		s.RunUntil(s.Now() + sim.Millisecond)
	}
	if done < 0 {
		t.Fatal("flow never completed")
	}
	if ep.AckedBytes != 14*packet.MTU {
		t.Errorf("acked %d bytes, want 14 packets", ep.AckedBytes)
	}
	if n := s.Pending(); n != 0 {
		t.Errorf("%d events pending after the last ACK of a stopped flow, want 0", n)
	}
}

// A stopped endpoint's wake must not fire at all, and one stopped before
// it starts must not arm one.
func TestEndpointStopCancelsWake(t *testing.T) {
	s := sim.New(1)
	hole := packet.NodeFunc(func(p *packet.Packet) { p.Release() }) // nothing comes back
	ep := NewEndpoint(s, 0, hole, &fixedWindow{w: 4})
	ep.Start()
	if s.Pending() != 1 {
		t.Fatalf("%d events pending after Start into a black hole, want the wake alone", s.Pending())
	}
	ep.Stop()
	if s.Pending() != 0 {
		t.Errorf("%d events pending after Stop, want 0", s.Pending())
	}

	ep2 := NewEndpoint(s, 1, hole, &fixedWindow{w: 4})
	ep2.Stop()
	ep2.Start()
	if s.Pending() != 0 || ep2.SentPackets != 0 {
		t.Errorf("stopped-before-start endpoint: %d events pending, %d packets sent", s.Pending(), ep2.SentPackets)
	}
}

// Flows that act on grid instants as a matter of course keep the order
// among themselves that they took at Start, as their ticks did: events at
// one instant run in scheduling order, so a flow whose wake was re-armed
// on demand would fall behind the others from then on (and fill the
// shared queue in a different order). Here the first flow's three-packet
// window keeps interrupting its polling; it must still send first
// whenever both send at the same instant.
func TestPolledFlowsKeepStartOrder(t *testing.T) {
	s := sim.New(1)
	type tx struct {
		at   sim.Time
		flow int
	}
	var log []tx
	for flow, w := range []float64{3, 10} {
		pipe := newLossyPipe(s, 17*sim.Millisecond)
		ep := NewEndpoint(s, flow, packet.NodeFunc(func(p *packet.Packet) {
			log = append(log, tx{s.Now(), p.Flow})
			pipe.Recv(p)
		}), &fixedWindow{w: w})
		pipe.ep = ep
		ep.Src = NewRateLimited(1e6)
		ep.Start()
	}
	s.RunUntil(5 * sim.Second)
	ties := 0
	for i := 1; i < len(log); i++ {
		if log[i].at != log[i-1].at {
			continue
		}
		ties++
		if log[i-1].flow != 0 || log[i].flow != 1 {
			t.Fatalf("at %v flow %d sent before flow %d; flows started together send in start order", log[i].at, log[i-1].flow, log[i].flow)
		}
	}
	if ties < 50 {
		t.Errorf("only %d instants at which both flows sent: the scenario no longer tests the order", ties)
	}
}

// A stopped endpoint has no event of its own pending, paced or not,
// whether it stops mid-transfer or from OnComplete: Stop cancels the
// pacer as well as the wake. A sender recycled for a later flow would
// otherwise have a stale pacing event fire into that flow.
func TestStoppedEndpointLeavesNoEvent(t *testing.T) {
	for _, name := range []string{"BBR", "PCC", "Cubic"} {
		for _, onComplete := range []bool{false, true} {
			s := sim.New(1)
			pipe := newLossyPipe(s, 20*sim.Millisecond)
			pipe.bps = 10e6
			alg, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			ep := NewEndpoint(s, 0, pipe, alg)
			pipe.ep = ep
			own := func() int {
				n := 0
				s.EachPending(func(a, _ any) {
					if a == ep {
						n++
					}
				})
				return n
			}
			if onComplete {
				ep.Src = NewFixed(200 << 10)
				ep.OnComplete = func(sim.Time) {
					if own() == 0 {
						t.Errorf("%s: no event of the endpoint's pending at completion; the check sees nothing", name)
					}
					ep.Stop()
				}
			}
			ep.Start()
			s.RunUntil(300 * sim.Millisecond)
			for onComplete && !ep.Stopped() && s.Now() < 5*sim.Second {
				s.RunUntil(s.Now() + sim.Millisecond)
			}
			if !onComplete {
				if own() == 0 {
					t.Errorf("%s: no event of the endpoint's pending mid-transfer; the check sees nothing", name)
				}
				ep.Stop()
			}
			if !ep.Stopped() {
				t.Fatalf("%s (stop on completion %v): not stopped by %v", name, onComplete, s.Now())
			}
			if n := own(); n != 0 {
				t.Errorf("%s (stop on completion %v): %d events of a stopped endpoint pending, want 0", name, onComplete, n)
			}
		}
	}
}
