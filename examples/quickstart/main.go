// Quickstart: one ABC flow over a time-varying wireless bottleneck.
//
// This example wires the minimal ABC deployment by hand — sender, ABC
// router on the bottleneck, receiver echoing accel/brake marks — and
// prints the flow's throughput against the changing link capacity,
// demonstrating the one-RTT window doubling/halving that one bit of
// feedback per packet achieves.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	"abc/internal/abc"
	"abc/internal/cc"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/trace"
)

func main() {
	s := sim.New(1)

	// A wireless link stepping through rates every 4 seconds.
	link := trace.Steps("demo", []float64{8e6, 20e6, 4e6, 14e6}, 4*sim.Second)

	// The ABC router with the paper's parameters (η=0.98, δ=133 ms).
	router := abc.NewRouter(abc.DefaultRouterConfig())

	// Topology: sender → ABC bottleneck → 25 ms wire → receiver, ACKs
	// back over another 25 ms wire (50 ms propagation RTT).
	const propRTT = 50 * sim.Millisecond
	sender := abc.NewSender()
	var ep *cc.Endpoint

	recvWire := &netem.Wire{S: s, Delay: propRTT / 2}
	bottleneck := netem.NewTraceLink(s, link, router, recvWire)
	ackWire := &netem.Wire{S: s, Delay: propRTT / 2}
	recv := netem.NewReceiver(s, 0, ackWire)
	recvWire.Dst = recv

	ep = cc.NewEndpoint(s, 0, bottleneck, sender)
	ackWire.Dst = ep

	// Measure delivered bytes and queuing delay each second.
	var delivered int64
	recv.OnData = func(now sim.Time, p *packet.Packet) { delivered += int64(p.Size) }

	fmt.Println("time   capacity   throughput   queue   wabc")
	var last int64
	var report func()
	report = func() {
		now := s.Now()
		tput := float64(delivered-last) * 8 / 1e6
		last = delivered
		fmt.Printf("%4.0fs %7.1f Mbps %7.2f Mbps %5d pkt %6.0f\n",
			now.Seconds(), link.CapacityBps(now, sim.Second)/1e6,
			tput, router.Len(), sender.WABC())
		if now < 16*sim.Second {
			s.After(sim.Second, report)
		}
	}
	s.After(sim.Second, report)

	ep.Start()
	s.RunUntil(16 * sim.Second)

	fmt.Printf("\ndelivered %.1f MB; sender saw %d accelerates, %d brakes\n",
		float64(delivered)/1e6, sender.Accels, sender.Brakes)
}
