package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"abc/internal/abc"
	"abc/internal/cc"
	"abc/internal/exp"
	"abc/internal/explicit"
	"abc/internal/fluid"
	"abc/internal/metrics"
	"abc/internal/netem"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sched"
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/trace"
	"abc/internal/wifi"
)

// A rung is an isolated timing of one module's public calls: the cost
// ladder's unit. setup builds a fixture for n operations and returns the
// timed body (which reports how many simulator events it executed, so
// the harness can subtract them and leave the module's self time) and a
// check of the fixture's output, so a rung cannot time a no-op.
type rung struct {
	name string // metric name
	unit string // ns, us or ms per operation
	n    int    // operations per batch
	// zeroAlloc rungs are held at 0 allocs/op by bench_thresholds.txt;
	// the ladder asserts it too, so they never time the allocator.
	zeroAlloc bool
	setup     func(n int) (body func() uint64, check func() error)
}

// rungResult is one rung's median over its batches.
type rungResult struct {
	selfNs float64 // ns per operation, less the event loop's share
	allocs float64 // heap objects per operation
}

// unitNs is how many nanoseconds a rung's unit holds.
var unitNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// measure times batches of r, takes the median ns/op and subtracts the
// event-loop cost (eventNs per simulator event the body executed).
func (r *rung) measure(n, batches int, eventNs float64) (rungResult, error) {
	var perOp []float64
	var allocs, events float64
	for b := 0; b < batches; b++ {
		body, check := r.setup(n)
		m0 := memStats()
		t0 := time.Now()
		ev := body()
		ns := float64(time.Since(t0).Nanoseconds())
		m1 := memStats()
		if err := check(); err != nil {
			return rungResult{}, fmt.Errorf("%s: %w", r.name, err)
		}
		perOp = append(perOp, ns/float64(n))
		allocs += float64(m1.Mallocs-m0.Mallocs) / float64(n)
		events += float64(ev) / float64(n)
	}
	res := rungResult{allocs: allocs / float64(batches)}
	// ReadMemStats itself may allocate a handful of objects per batch.
	if r.zeroAlloc && res.allocs*float64(n) > 8 {
		return res, fmt.Errorf("%s: %.3f allocs/op on a path bench_thresholds.txt holds at 0", r.name, res.allocs)
	}
	res.selfNs = math.Max(0, summarise(perOp, "ns").Value-events/float64(batches)*eventNs)
	return res, nil
}

// rungs lists the ladder. sim.event_ns_shallow must stay ahead of every
// rung that runs a simulator: their fixtures keep a few tens of events
// pending, and they subtract it per event.
var rungs = []rung{
	{name: "sim.event_ns_shallow", unit: "ns", n: 400_000, zeroAlloc: true, setup: simHold(1 << 4)},
	{name: "sim.event_ns", unit: "ns", n: 400_000, zeroAlloc: true, setup: simHold(1 << 10)},
	{name: "sim.event_ns_deep", unit: "ns", n: 400_000, zeroAlloc: true, setup: simHold(1 << 16)},
	{name: "sim.cancel_ns", unit: "ns", n: 400_000, zeroAlloc: true, setup: simCancel},
	{name: "packet.get_release_ns", unit: "ns", n: 400_000, setup: packetChurn},
	{name: "topo.hop_ns", unit: "ns", n: 1_000_000, zeroAlloc: true, setup: hopRung(1, 1, 0)},
	{name: "topo.fib_lookup_ns", unit: "ns", n: 1_000_000, zeroAlloc: true, setup: hopRung(2, 8, 0)},
	{name: "topo.hop_traced_ns", unit: "ns", n: 1_000_000, zeroAlloc: true, setup: hopRung(1, 1, obs.CatHop|obs.CatPacket)},
	{name: "topo.route_install_us", unit: "us", n: 2_000, setup: routeInstall},
	{name: "qdisc.droptail_ns", unit: "ns", n: 400_000, setup: qdiscRung(100, 10*sim.Microsecond, func(*rand.Rand) qdisc.Qdisc { return qdisc.NewDropTail(250) }, nil)},
	{name: "qdisc.codel_ns", unit: "ns", n: 400_000, setup: qdiscRung(100, 10*sim.Microsecond, func(*rand.Rand) qdisc.Qdisc { return qdisc.NewCoDel(250, false) }, nil)},
	{name: "qdisc.pie_ns", unit: "ns", n: 400_000, setup: qdiscRung(100, 10*sim.Microsecond, func(r *rand.Rand) qdisc.Qdisc { return qdisc.NewPIE(250, false, r) }, nil)},
	{name: "abc.router_ns", unit: "ns", n: 400_000, setup: qdiscRung(20, sim.Millisecond,
		func(*rand.Rand) qdisc.Qdisc { return abc.NewRouter(abc.DefaultRouterConfig()) },
		func(i int, p *packet.Packet) { p.ECN = packet.Accel; p.ABCFlow = true })},
	{name: "abc.sender_ack_ns", unit: "ns", n: 400_000, setup: abcSenderAck},
	{name: "explicit.xcp_ns", unit: "ns", n: 400_000, setup: qdiscRung(20, sim.Millisecond,
		func(*rand.Rand) qdisc.Qdisc { return explicit.NewXCPRouter(explicit.DefaultXCPConfig()) },
		func(i int, p *packet.Packet) {
			p.XCP = packet.XCPHeader{CwndBytes: 60 * packet.MTU, RTT: 100 * sim.Millisecond, Feedback: packet.MTU, Valid: true}
		})},
	{name: "sched.dualqueue_ns", unit: "ns", n: 400_000, setup: qdiscRung(20, sim.Millisecond,
		func(*rand.Rand) qdisc.Qdisc { return sched.NewDualQueue(sched.DefaultConfig()) },
		func(i int, p *packet.Packet) {
			if i%2 == 0 {
				p.ECN, p.ABCFlow = packet.Accel, true
			}
		})},
	{name: "netem.trace_link_pkt_ns", unit: "ns", n: 200_000, setup: linkRung(10, func(s *sim.Simulator, dst packet.Node) packet.Node {
		return netem.NewTraceLink(s, trace.Constant("rung", 24e6), qdisc.NewDropTail(250), dst)
	})},
	{name: "netem.rate_link_pkt_ns", unit: "ns", n: 200_000, setup: linkRung(10, func(s *sim.Simulator, dst packet.Node) packet.Node {
		return netem.NewRateLink(s, netem.ConstRate(24e6), qdisc.NewDropTail(250), dst)
	})},
	{name: "netem.wire_pkt_ns", unit: "ns", n: 400_000, setup: linkRung(100, func(s *sim.Simulator, dst packet.Node) packet.Node {
		return netem.NewWire(s, sim.Millisecond, dst)
	})},
	{name: "wifi.link_pkt_ns", unit: "ns", n: 200_000, setup: linkRung(40, func(s *sim.Simulator, dst packet.Node) packet.Node {
		return wifi.NewLink(s, wifi.DefaultLinkConfig(), qdisc.NewDropTail(250), dst, nil)
	})},
	{name: "wifi.estimator_ns", unit: "ns", n: 400_000, setup: wifiEstimator},
	{name: "trace.cellular_gen_ms", unit: "ms", n: 4, setup: traceGen},
	{name: "trace.lookup_ns", unit: "ns", n: 400_000, setup: traceLookup},
	{name: "cc.endpoint_pkt_ns", unit: "ns", n: 100_000, setup: endpointLoop},
	{name: "cc.endpoint_new_us", unit: "us", n: 5_000, setup: endpointNew},
	{name: "metrics.delay_add_ns", unit: "ns", n: 1_000_000, setup: delayAdd},
	{name: "metrics.p95_query_us", unit: "us", n: 2_000, setup: p95Query},
	{name: "obs.emit_ns", unit: "ns", n: 1_000_000, zeroAlloc: true, setup: obsEmit(obs.CatAll)},
	{name: "obs.emit_disabled_ns", unit: "ns", n: 1_000_000, zeroAlloc: true, setup: obsEmit(0)},
	{name: "obs.counter_add_ns", unit: "ns", n: 1_000_000, zeroAlloc: true, setup: counterAdd},
	{name: "fluid.coupler_step_ns", unit: "ns", n: 200_000, setup: couplerStep},
	{name: "exp.compile_ms", unit: "ms", n: 50, setup: expCompile},
}

// simHold is the classic hold model: depth self-rescheduling timers with
// distinct periods, so each operation is one pop, one dispatch and one
// push at a steady heap depth.
func simHold(depth int) func(int) (func() uint64, func() error) {
	type chain struct{ period sim.Time }
	return func(n int) (func() uint64, func() error) {
		s := sim.New(1)
		chains := make([]chain, depth)
		left := depth
		var tick sim.ArgsFunc
		tick = func(a, _ any) {
			if left--; left <= 0 {
				s.Halt()
			}
			s.AfterArgs(a.(*chain).period, tick, a, nil)
		}
		for i := range chains {
			chains[i].period = sim.Time(1000+7*i) * sim.Microsecond
			s.AfterArgs(chains[i].period, tick, &chains[i], nil)
		}
		s.Run() // one round: heap, slot table and free list reach steady state
		body := func() uint64 {
			left = n
			s.Run()
			return 0 // the events are the operation, not overhead
		}
		return body, func() error {
			if left != 0 || s.Pending() != depth {
				return fmt.Errorf("hold model ended with %d to go and %d pending, want 0 and %d", left, s.Pending(), depth)
			}
			return nil
		}
	}
}

// simCancel schedules and eagerly cancels against a 1k-deep heap.
func simCancel(n int) (func() uint64, func() error) {
	const depth = 1 << 10
	s := sim.New(1)
	nop := func(a, b any) {}
	for j := 0; j < depth; j++ {
		s.AfterArgs(sim.Second+sim.Time(j)*sim.Microsecond, nop, nil, nil)
	}
	s.AfterArgs(sim.Millisecond, nop, nil, nil).Stop()
	stopped := 0
	body := func() uint64 {
		for i := 0; i < n; i++ {
			if s.AfterArgs(sim.Time(i%1000)*sim.Microsecond, nop, nil, nil).Stop() {
				stopped++
			}
		}
		return 0
	}
	return body, func() error {
		if stopped != n || s.Pending() != depth {
			return fmt.Errorf("cancelled %d of %d, %d pending", stopped, n, s.Pending())
		}
		return nil
	}
}

// packetChurn is one data/ACK exchange through the packet free list.
func packetChurn(n int) (func() uint64, func() error) {
	var acks int
	body := func() uint64 {
		for i := 0; i < n; i++ {
			p := packet.NewData(1, int64(i), packet.MTU, 0)
			p.ECN = packet.Accel
			a := packet.NewAck(p, int64(i)+1, 1)
			if a.IsAck {
				acks++
			}
			p.Release()
			a.Release()
		}
		return 0
	}
	return body, func() error {
		if acks != n {
			return fmt.Errorf("built %d ACKs, want %d", acks, n)
		}
		return nil
	}
}

// hopRung forwards one packet n times over a route of pure edges (no
// link, no delay) shared by flows flows: with one edge it is the
// junction lookup plus the edge gate, with two the mid-route FIB lookup
// under class aggregation. A non-zero mask attaches the flight recorder.
func hopRung(edges, flows int, mask obs.Cat) func(int) (func() uint64, func() error) {
	return func(n int) (func() uint64, func() error) {
		g := topo.New(sim.New(1))
		var rec *obs.Recorder
		if mask != 0 {
			rec = obs.NewRecorder(1<<16, mask)
			g.SetRecorder(rec)
		}
		var setupErr error
		path := make([]int, edges)
		prev := g.AddNode("n0")
		for i := range path {
			next := g.AddNode(fmt.Sprintf("n%d", i+1))
			id, err := g.AddEdge(fmt.Sprintf("e%d", i), prev, next, 0, topo.Impairments{}, nil)
			if err != nil {
				setupErr = err
			}
			path[i], prev = id, next
		}
		sink := &packet.Sink{}
		var entry packet.Node
		for f := 1; f <= flows; f++ {
			e, err := g.RouteFlow(f, false, path, 0, sink)
			if err != nil {
				setupErr = err
			}
			entry = e
		}
		p := packet.NewData(flows, 0, packet.MTU, 0)
		body := func() uint64 {
			if setupErr != nil {
				return 0
			}
			for i := 0; i < n; i++ {
				entry.Recv(p)
			}
			return 0
		}
		return body, func() error {
			p.Release()
			if setupErr != nil {
				return setupErr
			}
			if sink.Count != n {
				return fmt.Errorf("delivered %d, want %d", sink.Count, n)
			}
			if rec != nil && rec.Total() < uint64(n) {
				return fmt.Errorf("recorded %d events, want >= %d: tracing was not active", rec.Total(), n)
			}
			return nil
		}
	}
}

// routeInstall is the write side of the forwarding tables: RouteFlow of
// an 8-edge path for a fresh flow id, routes accumulating as they do in
// a run that spawns flows.
func routeInstall(n int) (func() uint64, func() error) {
	g := topo.New(sim.New(1))
	var firstErr error
	path := make([]int, 8)
	prev := g.AddNode("n0")
	for i := range path {
		next := g.AddNode(fmt.Sprintf("n%d", i+1))
		path[i], firstErr = g.AddEdge(fmt.Sprintf("e%d", i), prev, next, 0, topo.Impairments{}, nil)
		prev = next
	}
	sink := &packet.Sink{}
	var entry packet.Node
	body := func() uint64 {
		for f := 1; f <= n && firstErr == nil; f++ {
			entry, firstErr = g.RouteFlow(f, false, path, 0, sink)
		}
		return 0
	}
	return body, func() error {
		if firstErr != nil {
			return firstErr
		}
		p := packet.NewData(n, 0, packet.MTU, 0)
		defer p.Release()
		entry.Recv(p)
		if sink.Count != 1 {
			return fmt.Errorf("the last installed route delivered %d packets, want 1", sink.Count)
		}
		return nil
	}
}

// qdiscRung is enqueue plus dequeue at a standing queue of standing
// packets, one MTU per gap of virtual time (which is also the rate a
// capacity-aware discipline is told the link runs at). The AQMs get a
// gap short enough that the standing queue's sojourn time stays under
// their targets: the rung times the forwarding path, not the drop path.
func qdiscRung(standing int, gap sim.Time, mk func(*rand.Rand) qdisc.Qdisc, stamp func(i int, p *packet.Packet)) func(int) (func() uint64, func() error) {
	return func(n int) (func() uint64, func() error) {
		q := mk(rand.New(rand.NewSource(1)))
		if ca, ok := q.(qdisc.CapacityAware); ok {
			ca.SetCapacityProvider(func(sim.Time) float64 { return packet.MTU * 8 / gap.Seconds() })
		}
		now := sim.Time(0)
		mkPkt := func(i int) *packet.Packet {
			p := packet.NewData(1+i%4, int64(i), packet.MTU, now)
			if stamp != nil {
				stamp(i, p)
			}
			return p
		}
		for i := 0; i < standing; i++ {
			now += gap
			q.Enqueue(now, mkPkt(i))
		}
		served := 0
		body := func() uint64 {
			for i := 0; i < n; i++ {
				now += gap
				if p := mkPkt(i); !q.Enqueue(now, p) {
					p.Release()
				}
				if p := q.Dequeue(now); p != nil {
					served++
					p.Release()
				}
			}
			return 0
		}
		return body, func() error {
			if served != n || q.Len() != standing {
				return fmt.Errorf("%T served %d of %d and ended %d deep, want %d", q, served, n, q.Len(), standing)
			}
			if r, ok := q.(*abc.Router); ok && r.AccelMarked+r.BrakeMarked < int64(n) {
				return fmt.Errorf("abc router marked %d packets, want >= %d", r.AccelMarked+r.BrakeMarked, n)
			}
			return nil
		}
	}
}

// abcSenderAck is the ABC sender's per-ACK window update.
func abcSenderAck(n int) (func() uint64, func() error) {
	s := sim.New(1)
	snd := abc.NewSender()
	ep := cc.NewEndpoint(s, 0, &packet.Sink{}, snd)
	ack := packet.Get()
	ack.IsAck, ack.EchoValid, ack.Size = true, true, packet.AckSize
	body := func() uint64 {
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			now += sim.Millisecond
			ack.EchoAccel = i%3 != 0
			ack.ECN = packet.Brake
			if ack.EchoAccel {
				ack.ECN = packet.Accel
			}
			snd.OnAck(now, ep, cc.AckInfo{Ack: ack, RTT: 100 * sim.Millisecond, RTTValid: true, AckedBytes: packet.MTU, Inflight: 50})
		}
		return 0
	}
	return body, func() error {
		ack.Release()
		if snd.Accels+snd.Brakes != int64(n) {
			return fmt.Errorf("sender counted %d marks, want %d", snd.Accels+snd.Brakes, n)
		}
		return nil
	}
}

// feeder drives n packets through a link, keeping a fixed number inside
// it: every delivery injects the next packet.
type feeder struct {
	s         *sim.Simulator
	entry     packet.Node
	n         int
	sent, got int
}

func (f *feeder) Recv(p *packet.Packet) {
	f.got++
	p.Release()
	f.inject()
}

func (f *feeder) inject() {
	if f.sent < f.n {
		f.sent++
		f.entry.Recv(packet.NewData(1, int64(f.sent), packet.MTU, f.s.Now()))
	}
}

// linkRung times one packet through a link model with depth packets
// kept inside it.
func linkRung(depth int, mk func(s *sim.Simulator, dst packet.Node) packet.Node) func(int) (func() uint64, func() error) {
	return func(n int) (func() uint64, func() error) {
		s := sim.New(1)
		f := &feeder{s: s, n: n}
		f.entry = mk(s, f)
		body := func() uint64 {
			for i := 0; i < depth; i++ {
				f.inject()
			}
			return s.Run()
		}
		return body, func() error {
			if f.got != n {
				return fmt.Errorf("link delivered %d, want %d", f.got, n)
			}
			return nil
		}
	}
}

// wifiEstimator is one block-ACK observation plus one rate query.
func wifiEstimator(n int) (func() uint64, func() error) {
	est := wifi.NewEstimator(20, packet.MTU, 0)
	var sum float64
	body := func() uint64 {
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			now += 2 * sim.Millisecond
			est.OnBlockAck(now, 20, 1800*sim.Microsecond, wifi.BitrateForMCS(5))
			sum += est.RateBps(now)
		}
		return 0
	}
	return body, func() error {
		if sum <= 0 {
			return fmt.Errorf("estimator never reported a rate")
		}
		return nil
	}
}

// traceGen synthesises one 60 s cellular trace.
func traceGen(n int) (func() uint64, func() error) {
	var ops int
	body := func() uint64 {
		for i := 0; i < n; i++ {
			ops += trace.Cellular("rung", trace.CellParams{Seed: int64(i + 1), Duration: 60 * sim.Second, MeanMbps: 10}).Opportunities()
		}
		return 0
	}
	return body, func() error {
		if ops == 0 {
			return fmt.Errorf("generated traces hold no delivery opportunities")
		}
		return nil
	}
}

// traceLookup is what a trace link asks per delivery: the next
// opportunity and how many share its instant.
func traceLookup(n int) (func() uint64, func() error) {
	tr := trace.Cellular("rung", trace.CellParams{Seed: 1, Duration: 60 * sim.Second, MeanMbps: 10})
	var found int64
	body := func() uint64 {
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			now += 137 * sim.Microsecond
			next := tr.NextOpportunity(now)
			found += tr.CountIn(next, next+1)
		}
		return 0
	}
	return body, func() error {
		if found < int64(n) {
			return fmt.Errorf("found %d opportunities in %d lookups", found, n)
		}
		return nil
	}
}

// endpointLoop is Cubic endpoints sending n packets to a receiver over a
// loopback pair of wires and processing their ACKs, as back-to-back
// transfers of 1000 packets so the window stays in the hundreds, where
// the workloads' windows are.
func endpointLoop(n int) (func() uint64, func() error) {
	const transfer = 1000
	s := sim.New(1)
	var acked int64
	var firstErr error
	body := func() uint64 {
		var events uint64
		for left := n; left > 0 && firstErr == nil; left -= transfer {
			alg, err := cc.New("Cubic")
			if err != nil {
				firstErr = err
				break
			}
			ep := cc.NewEndpoint(s, 1, nil, alg)
			ep.Out = netem.NewWire(s, 5*sim.Millisecond, netem.NewReceiver(s, 1, netem.NewWire(s, 5*sim.Millisecond, ep)))
			ep.Src = cc.NewFixed(min(left, transfer) * packet.MTU)
			ep.OnComplete = func(sim.Time) { ep.Stop() }
			ep.Start()
			events += s.RunUntil(s.Now() + 60*sim.Second)
			acked += ep.AckedPackets
		}
		return events
	}
	return body, func() error {
		if firstErr != nil {
			return firstErr
		}
		if acked < int64(n) {
			return fmt.Errorf("%d packets acked, want %d", acked, n)
		}
		return nil
	}
}

// endpointNew is the write side of cc: construct, start and stop an
// endpoint, as a workload does for every spawned flow.
func endpointNew(n int) (func() uint64, func() error) {
	s := sim.New(1)
	sent := 0
	out := packet.NodeFunc(func(p *packet.Packet) {
		sent++
		p.Release()
	})
	var firstErr error
	body := func() uint64 {
		for i := 0; i < n; i++ {
			alg, err := cc.New("Cubic")
			if err != nil {
				firstErr = err
				break
			}
			ep := cc.NewEndpoint(s, i, out, alg)
			ep.Start()
			ep.Stop()
		}
		return s.Run() // the stopped endpoints' housekeeping timers drain
	}
	return body, func() error {
		if firstErr != nil {
			return firstErr
		}
		if sent < n {
			return fmt.Errorf("%d endpoints sent %d packets", n, sent)
		}
		return nil
	}
}

func delayAdd(n int) (func() uint64, func() error) {
	var d metrics.DelayRecorder
	body := func() uint64 {
		for i := 0; i < n; i++ {
			d.AddSample(float64(i%997) * 0.1)
		}
		return 0
	}
	return body, func() error {
		if d.Count() != n {
			return fmt.Errorf("recorded %d samples, want %d", d.Count(), n)
		}
		return nil
	}
}

// p95Query asks a recorder holding 100k samples for its 95th percentile
// after each further sample.
func p95Query(n int) (func() uint64, func() error) {
	var d metrics.DelayRecorder
	for i := 0; i < 100_000; i++ {
		d.AddSample(float64(i%997) * 0.1)
	}
	var sum float64
	body := func() uint64 {
		for i := 0; i < n; i++ {
			d.AddSample(float64(i%997) * 0.1)
			sum += d.P95()
		}
		return 0
	}
	return body, func() error {
		if p := sum / float64(n); p < 90 || p > 99.7 {
			return fmt.Errorf("mean p95 %.2f outside the sample range's upper decile", p)
		}
		return nil
	}
}

// obsEmit is one trace point: the mask check and, when the category is
// enabled, the in-place ring store.
func obsEmit(mask obs.Cat) func(int) (func() uint64, func() error) {
	return func(n int) (func() uint64, func() error) {
		rec := obs.NewRecorder(1<<16, mask)
		body := func() uint64 {
			for i := 0; i < n; i++ {
				if rec.Enabled(obs.CatHop) {
					rec.Emit(int64(i), obs.EvHop, 1, 2, 3, 4)
				}
			}
			return 0
		}
		return body, func() error {
			want := uint64(n)
			if mask == 0 {
				want = 0
			}
			if rec.Total() != want {
				return fmt.Errorf("recorded %d events, want %d", rec.Total(), want)
			}
			return nil
		}
	}
}

func counterAdd(n int) (func() uint64, func() error) {
	c := obs.NewRegistry().Counter("rung_total")
	body := func() uint64 {
		for i := 0; i < n; i++ {
			c.Add(1)
		}
		return 0
	}
	return body, func() error {
		if c.Value() != int64(n) {
			return fmt.Errorf("counter reads %d, want %d", c.Value(), n)
		}
		return nil
	}
}

// couplerStep is one fixed step of a million-user on/off aggregate
// against a 120 Mbit/s link with a standing packet backlog.
func couplerStep(n int) (func() uint64, func() error) {
	s := sim.New(1)
	c, err := fluid.NewCoupler(fluid.AggregateConfig{
		Kind: fluid.KindOnOff, Flows: 1_000_000, RateBps: 60e6,
		OnFor: 5 * sim.Second, OffFor: 5 * sim.Second,
	}, func(sim.Time) float64 { return 120e6 }, func() int { return 20 * packet.MTU })
	if err != nil {
		return func() uint64 { return 0 }, func() error { return err }
	}
	end := sim.Time(n) * 10 * sim.Millisecond
	c.Start(s, end)
	body := func() uint64 { return s.RunUntil(end) }
	return body, func() error {
		if st := c.Stats(); st.Steps < n-1 || st.ServedBytes <= 0 {
			return fmt.Errorf("coupler took %d steps and served %.0f bytes, want %d steps", st.Steps, st.ServedBytes, n)
		}
		return nil
	}
}

// expCompile is compile-and-wire: one single-link, single-flow spec run
// for 1 ms of simulated time.
func expCompile(n int) (func() uint64, func() error) {
	spec := exp.Spec{
		Seed: 1, Duration: sim.Millisecond, Warmup: sim.Millisecond,
		Links: []exp.LinkSpec{{Trace: trace.Constant("rung", 12e6)}},
		Flows: []exp.FlowSpec{{Scheme: "ABC"}},
	}
	var firstErr error
	flows := 0
	body := func() uint64 {
		for i := 0; i < n && firstErr == nil; i++ {
			res, _, err := exp.Run(spec)
			if err != nil {
				firstErr = err
				break
			}
			flows += len(res.Flows)
		}
		return 0
	}
	return body, func() error {
		if firstErr != nil {
			return firstErr
		}
		if flows != n {
			return fmt.Errorf("compiled %d flows, want %d", flows, n)
		}
		return nil
	}
}
