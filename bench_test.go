// Micro-benchmarks of the per-packet path and the two run modes built
// on it: exactly the set bench_thresholds.txt guards (allocs/op ceilings,
// enforced by scripts/check_allocs.sh in CI). End-to-end performance is
// measured by the bench/ module (bash bench/run.sh, see BENCHMARK.json),
// and "does every experiment still run" by TestDriverTable in
// internal/exp.
package abc_test

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"abc/internal/abc"
	"abc/internal/app"
	"abc/internal/cc"
	"abc/internal/exp"
	"abc/internal/metrics"
	"abc/internal/netem"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/trace"
	"abc/internal/wifi"
)

// BenchmarkSimCore measures the raw event core: schedule, cancel and pop
// with a recycled heap and slot table (see DESIGN.md §2). Steady state
// must report 0 allocs/op; a regression here taxes every experiment.
func BenchmarkSimCore(b *testing.B) {
	s := sim.New(1)
	nop := func(a, c any) {}
	// Warm the heap, slot table and free list.
	for j := 0; j < 1024; j++ {
		s.AfterArgs(sim.Time(j)*sim.Microsecond, nop, nil, nil)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 64 schedules, 32 eager cancels, 64 pops per iteration.
		for j := 0; j < 64; j++ {
			s.AfterArgs(sim.Time(j)*sim.Microsecond, nop, nil, nil)
		}
		for j := 0; j < 32; j++ {
			s.AfterArgs(sim.Time(j)*sim.Microsecond, nop, nil, nil).Stop()
		}
		s.Run()
	}
}

// BenchmarkWireFIFO measures one packet crossing a netem.Wire with 64
// packets in flight, on one wire (wires=1) or spread over 64 wires of one
// delay (wires=64): a send on the simulator's delay line for the delay
// plus a pop that promotes the line's next event (see DESIGN.md §2).
// Every wire of one delay shares the line, whose events live in the
// simulator's slab, so steady state must report 0 allocs/op either way.
func BenchmarkWireFIFO(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("wires=%d", n), func(b *testing.B) {
			s := sim.New(1)
			wires := make([]*netem.Wire, n)
			// Each delivery sends the packet round again, 64 µs later,
			// on the next wire.
			for i := range wires {
				next := (i + 1) % n
				wires[i] = netem.NewWire(s, 64*sim.Microsecond, packet.NodeFunc(func(p *packet.Packet) { wires[next].Recv(p) }))
			}
			for j := 0; j < 64; j++ {
				wires[j%n].Recv(packet.NewData(1, int64(j), packet.MTU, 0))
				s.RunUntil(s.Now() + sim.Microsecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := s.Executed()
			s.RunUntil(s.Now() + sim.Time(b.N)*sim.Microsecond)
			if got := s.Executed() - start; got != uint64(b.N) || s.Pending() != 64 {
				b.Fatalf("%d deliveries and %d in flight, want %d and 64", got, s.Pending(), b.N)
			}
		})
	}
}

// BenchmarkWireRun measures one packet crossing a fused wire run with 64
// in flight: a static graph's route over two bare wires and the flow's
// access tail, which costs one scheduled arrival instead of three wire
// events (topo/run.go). The origin's table lookup and the send on the
// delay line of the run's summed delay are all it does, so steady state
// must report 0 allocs/op.
func BenchmarkWireRun(b *testing.B) {
	s := sim.New(1)
	g := topo.New(s)
	a, m, c := g.AddNode("a"), g.AddNode("m"), g.AddNode("c")
	w1, err1 := g.AddEdge("w1", a, m, 40*sim.Microsecond, topo.Impairments{}, nil)
	w2, err2 := g.AddEdge("w2", m, c, 8*sim.Microsecond, topo.Impairments{}, nil)
	if err1 != nil || err2 != nil {
		b.Fatal(err1, err2)
	}
	g.SetStatic()
	var entry packet.Node
	// Each arrival sends the packet round again, 64 µs later.
	entry, err := g.RouteFlow(1, false, []int{w1, w2}, 16*sim.Microsecond,
		packet.NodeFunc(func(p *packet.Packet) { entry.Recv(p) }))
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 64; j++ {
		entry.Recv(packet.NewData(1, int64(j), packet.MTU, 0))
		s.RunUntil(s.Now() + sim.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := s.Executed()
	s.RunUntil(s.Now() + sim.Time(b.N)*sim.Microsecond)
	if got := s.Executed() - start; got != uint64(b.N) || s.Pending() != 64 {
		b.Fatalf("%d events and %d in flight, want %d and 64: one event per crossing", got, s.Pending(), b.N)
	}
}

// BenchmarkAckFold measures one data packet over a folded access tail
// with 64 in flight: a flow whose ACKs return over the implicit direct
// wire (topo.Graph.RouteFlow with no ACK edges), so its data tail folds
// the ACK's return into the arrival (netem.Wire.Carry). As the packet
// enters the tail the receiver takes it, stamped with its arrival
// instant, and the ACK goes on the delay line of the tail and the return
// wire together: one event per packet, the ACK's arrival, where the
// sender puts the next packet on the tail. The tally draws from an
// arena, as in a run, so steady state must report 0 allocs/op.
func BenchmarkAckFold(b *testing.B) {
	s := sim.New(1)
	g := topo.New(s)
	var tl packet.Tally
	tl.UseArena(g.Arena())
	var data packet.Node
	var next, acks int64
	send := func() {
		data.Recv(tl.NewData(1, next, packet.MTU, s.Now()))
		next++
	}
	sender := packet.NodeFunc(func(a *packet.Packet) {
		a.Release()
		acks++
		send()
	})
	ret, err := g.RouteFlow(1, true, nil, 16*sim.Microsecond, sender)
	if err != nil {
		b.Fatal(err)
	}
	rcv := netem.NewReceiver(s, 1, ret)
	if data, err = g.RouteFlow(1, false, nil, 48*sim.Microsecond, rcv); err != nil {
		b.Fatal(err)
	}
	if !data.(*netem.Wire).FoldAcks() {
		b.Fatal("the data tail does not fold the ACK's return")
	}
	for j := 0; j < 64; j++ {
		send()
		s.RunUntil(s.Now() + sim.Microsecond)
	}
	s.RunUntil(s.Now() + sim.Millisecond) // arena, slab and lines at size
	b.ReportAllocs()
	b.ResetTimer()
	start, acked := s.Executed(), acks
	s.RunUntil(s.Now() + sim.Time(b.N)*sim.Microsecond)
	// Packets whose arrival lay past the end of the warm-up run were not
	// folded: each of those costs its arrival too, once.
	if got, n := acks-acked, s.Executed()-start; got != int64(b.N) || n > uint64(b.N)+64 || tl.Live() != 64 {
		b.Fatalf("%d ACKs in %d events with %d in flight, want %d, at most %d and 64: one event per packet",
			got, n, tl.Live(), b.N, b.N+64)
	}
}

// BenchmarkSimHold measures one event of a hold model on delay lines at
// three heap depths: keys=8 (about hybrid_bg's 6 keys), keys=96 (above
// flow_churn's 59 and mesh_seq's 49) and keys=1024 (bench's sim.event_ns
// rung). Every key heads the line of its own delay with two events in
// flight, and each fired event sends its successor on its line, so every
// pop takes the wire's path: the fired head's successor replaces the root
// and sifts down (see DESIGN.md §2). One op is one event; steady state
// must report 0 allocs/op.
func BenchmarkSimHold(b *testing.B) {
	for _, keys := range []int{8, 96, 1024} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			s := sim.New(1)
			lines := make([]sim.Line, keys)
			for i := range lines {
				lines[i] = s.Line(sim.Time(1000+7*i) * sim.Microsecond)
			}
			left := 0
			var fire sim.ArgsFunc
			fire = func(a, _ any) {
				a.(*sim.Line).AfterArgs(fire, a, nil)
				if left--; left == 0 {
					s.Halt()
				}
			}
			for round := 0; round < 2; round++ {
				for i := range lines {
					lines[i].AfterArgs(fire, &lines[i], nil)
				}
				s.RunUntil(s.Now() + 250*sim.Microsecond)
			}
			holdRun(b, s, &left, 16*keys, 2*keys)
		})
	}
}

// BenchmarkSimRearm measures one event of a link-service model at two
// heap depths: keys=8 and keys=64, each key an event that re-arms itself
// one fixed per-key period later, as a link's service or an endpoint's
// pacer does. The fired event leaves the root vacant and its re-armed
// successor takes it with one siftDown (see DESIGN.md §2). One op is one
// event; steady state must report 0 allocs/op.
func BenchmarkSimRearm(b *testing.B) {
	for _, keys := range []int{8, 64} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			s := sim.New(1)
			periods := make([]sim.Time, keys)
			left := 0
			var fire sim.ArgsFunc
			fire = func(a, _ any) {
				s.AfterArgs(*a.(*sim.Time), fire, a, nil)
				if left--; left == 0 {
					s.Halt()
				}
			}
			for i := range periods {
				periods[i] = sim.Time(1000+7*i) * sim.Microsecond
				s.AfterArgs(periods[i], fire, &periods[i], nil)
			}
			holdRun(b, s, &left, 16*keys, keys)
		})
	}
}

// holdRun warms s over warm events, then times b.N more, each loop
// halting itself through *left, and checks the count and the pending
// events.
func holdRun(b *testing.B, s *sim.Simulator, left *int, warm, pending int) {
	// Warm the heap, the slab and the free list.
	*left = warm
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	start := s.Executed()
	*left = b.N
	s.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	if got := s.Executed() - start; got != uint64(b.N) || s.Pending() != pending {
		b.Fatalf("%d events and %d pending, want %d and %d", got, s.Pending(), b.N, pending)
	}
}

// ackClockWindow is a constant-window cc.Algorithm that halts the
// simulator once it has seen stopAt ACKs.
type ackClockWindow struct {
	s            *sim.Simulator
	w            float64
	acks, stopAt int64
}

func (a *ackClockWindow) Name() string { return "fixed" }
func (a *ackClockWindow) OnAck(sim.Time, *cc.Endpoint, cc.AckInfo) {
	if a.acks++; a.acks == a.stopAt {
		a.s.Halt()
	}
}
func (a *ackClockWindow) OnCongestion(sim.Time, *cc.Endpoint) {}
func (a *ackClockWindow) OnRTO(sim.Time, *cc.Endpoint)        {}
func (a *ackClockWindow) CwndPkts() float64                   { return a.w }
func (a *ackClockWindow) Reset()                              { a.acks = 0 }

// BenchmarkEndpointAckClock measures one turn of the ACK clock: a data
// packet from cc.Endpoint over a wire to netem.Receiver and its ACK over
// a second wire back, 256 packets in flight. The endpoint's tally draws
// its packets from an arena, as every flow of an exp.Run does. In steady
// state the endpoint's scoreboard ring, the arena, the receiver and both
// wires reuse what they hold, so it must report 0 allocs/op (enforced
// via bench_thresholds.txt).
func BenchmarkEndpointAckClock(b *testing.B) {
	s := sim.New(1)
	alg := &ackClockWindow{s: s, w: 256}
	back := netem.NewWire(s, 10*sim.Millisecond, nil)
	rcv := netem.NewReceiver(s, 1, back)
	ep := cc.NewEndpoint(s, 1, netem.NewWire(s, 10*sim.Millisecond, rcv), alg)
	var arena packet.Arena
	ep.Tally.UseArena(&arena)
	back.Dst = ep
	ep.Start()
	s.RunUntil(sim.Second) // ring, event slab and packet free-list at size
	b.ReportAllocs()
	b.ResetTimer()
	start := alg.acks
	alg.stopAt = start + int64(b.N)
	s.RunUntil(s.Now() + sim.Time(b.N)*sim.Second)
	if got := alg.acks - start; got != int64(b.N) || ep.Inflight() != 256 || ep.LostPackets != 0 {
		b.Fatalf("%d ACKs, %d in flight, %d lost; want %d, 256, 0", got, ep.Inflight(), ep.LostPackets, b.N)
	}
}

// BenchmarkDelayRecorderAdd measures the per-packet metrics path: one op
// is 1000 delay samples into a metrics.DelayRecorder that is past its
// 1000 raw samples, then one P95 — an array increment each, and a walk
// over the counters. Every octave the stream touches exists before the
// timer starts, so it must report 0 allocs/op (enforced via
// bench_thresholds.txt).
func BenchmarkDelayRecorderAdd(b *testing.B) {
	var d metrics.DelayRecorder
	delay := func(i int) sim.Time { return sim.Time(1+i%997) * 211 * sim.Microsecond } // 0.2 to 210 ms
	for i := 0; i < 2000; i++ {
		d.Add(delay(i))
	}
	var p95 float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			d.Add(delay(j))
		}
		p95 = d.P95()
	}
	if d.Count() != 2000+1000*b.N || p95 < 190 || p95 > 210 {
		b.Fatalf("%d samples, p95 %.1f ms; want %d and about 200", d.Count(), p95, 2000+1000*b.N)
	}
}

// BenchmarkDelayRecorderFill measures what a flow's recorder costs over
// a run: one op fills a fresh metrics.DelayRecorder with 20 000 delay
// samples over eleven octaves (0.06 to 61 ms), then asks one P95. Its
// allocations are the raw phase's (append's doublings to 128 samples,
// then one slice of 1000), the octave index and one counter block per
// octave touched; a jump means the raw phase or the octaves went back
// to throwing storage away.
func BenchmarkDelayRecorderFill(b *testing.B) {
	delay := func(i int) sim.Time { return sim.Time(1+i*7919%997) * 61 * sim.Microsecond }
	var lo, hi, p95 float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var d metrics.DelayRecorder
		for j := 0; j < 20_000; j++ {
			d.Add(delay(j))
		}
		lo, hi, p95 = d.Percentile(0), d.Percentile(100), d.P95()
	}
	if hi < 32*lo || p95 < 55 || p95 > 60 {
		b.Fatalf("samples span [%.3f, %.1f] ms with p95 %.1f ms; want five octaves or more and p95 about 58", lo, hi, p95)
	}
}

// BenchmarkArenaChurn measures one data/ACK exchange of a flow whose
// tally draws from a run's packet arena: the data packet is drawn from
// the arena, the ACK built from it too, and both end back into it. Once
// the arena holds a slab and a free list, every packet is one ended the
// exchange before, so steady state must report 0 allocs/op.
func BenchmarkArenaChurn(b *testing.B) {
	var arena packet.Arena
	var tl packet.Tally
	tl.UseArena(&arena)
	exchange := func(seq int64) {
		p := tl.NewData(1, seq, packet.MTU, 0)
		p.ECN = packet.Accel
		a := packet.NewAck(p, seq+1, 1)
		p.Release()
		a.Release()
	}
	exchange(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange(int64(i))
	}
	if live := tl.Live(); live != 0 {
		b.Fatalf("%d packets live after every exchange ended", live)
	}
}

// BenchmarkQdiscChurn measures the disciplines' per-packet path, one
// sub-benchmark per registered kind: one op takes 256 packets off the
// head of a standing 64-packet queue and offers each back at the tail,
// 10 µs apart (no AQM reacts to 640 µs of sojourn, so the queue stands).
// The ring behind qdisc.Queue and the routers' rate meters recycle their
// storage, so steady state must report 0 allocs/op for every kind — a
// dual queue's once-per-200 ms reweigh is the only allocation left, far
// below one per op.
func BenchmarkQdiscChurn(b *testing.B) {
	const standing, perOp, gap = 64, 256, 10 * sim.Microsecond
	for _, kind := range qdisc.Kinds() {
		b.Run("kind="+kind, func(b *testing.B) {
			q, err := qdisc.Build(qdisc.BuildSpec{Kind: kind, Buffer: 1000})
			if err != nil {
				b.Fatal(err)
			}
			if ca, ok := q.(qdisc.CapacityAware); ok {
				ca.SetCapacityProvider(func(sim.Time) float64 { return packet.MTU * 8 / gap.Seconds() })
			}
			now := sim.Time(0)
			for j := 0; j < standing; j++ {
				p := packet.NewData(1+j%4, int64(j), packet.MTU, 0)
				p.ABCFlow = j%2 == 0
				q.Enqueue(now, p)
			}
			churn := func(n int) {
				for j := 0; j < n; j++ {
					now += gap
					p := q.Dequeue(now)
					if p == nil {
						b.Fatalf("t=%v: standing queue ran dry", now)
					}
					p.ECN = packet.Accel
					if !q.Enqueue(now, p) {
						b.Fatalf("t=%v: standing queue refused a packet", now)
					}
				}
			}
			// Warm the ring and the 50 ms meter windows past their
			// first compaction.
			churn(1 << 15)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn(perOp)
			}
			if q.Len() != standing {
				b.Fatalf("queue holds %d packets, want the standing %d", q.Len(), standing)
			}
		})
	}
}

// TestThresholdRowsAreTheBenchmarks: bench_thresholds.txt and this file
// name the same benchmarks. Every top-level benchmark here has at least
// one row, so a benchmark added without a ceiling fails here, and every
// row names a benchmark here, so a row left behind by a deleted one fails
// here too, not only in scripts/check_allocs.sh.
func TestThresholdRowsAreTheBenchmarks(t *testing.T) {
	src, err := os.ReadFile("bench_test.go")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("bench_thresholds.txt")
	if err != nil {
		t.Fatal(err)
	}
	benchmarks := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`).FindAllStringSubmatch(string(src), -1) {
		benchmarks[m[1]] = false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(strings.Fields(line)[0], "/")
		if _, ok := benchmarks[name]; !ok {
			t.Errorf("bench_thresholds.txt row %q names no benchmark in bench_test.go", line)
		}
		benchmarks[name] = true
	}
	for name, guarded := range benchmarks {
		if !guarded {
			t.Errorf("%s has no row in bench_thresholds.txt", name)
		}
	}
}

// TestQdiscChurnRowsAreTheKinds: bench_thresholds.txt guards exactly one
// BenchmarkQdiscChurn row per registered discipline kind, so adding or
// deleting a kind without its row fails here, not only in the CI step
// that runs scripts/check_allocs.sh.
func TestQdiscChurnRowsAreTheKinds(t *testing.T) {
	data, err := os.ReadFile("bench_thresholds.txt")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "BenchmarkQdiscChurn/kind="
	var rows []string
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, prefix); ok {
			rows = append(rows, strings.Fields(name)[0])
		}
	}
	slices.Sort(rows)
	if kinds := qdisc.Kinds(); !slices.Equal(rows, kinds) {
		t.Errorf("bench_thresholds.txt has %s rows for kinds %v, want qdisc.Kinds() %v", prefix, rows, kinds)
	}
}

// BenchmarkLinkChurn measures the link models' per-packet path, one
// sub-benchmark per model, untraced and with the flight recorder at
// CatPacket: each delivered packet is offered straight back, so a standing
// 64 packets circulate through a queue and the link's schedule, and one op
// is 256 of them delivered. The queue is a droptail, except behind the
// cellular trace link: a synthetic cellular trace (several opportunities
// on one timestamp, outages) in front of an ABC router, which reads the
// link's µ(t) for every packet it dequeues. Everything a packet touches —
// netem.Port's admit, sojourn booking, delivery count and its three
// events, the model's timers and trace cursors, the A-MPDU slice — is
// reused, so every row must report 0 allocs/op, the traced Wi-Fi AP
// included.
func BenchmarkLinkChurn(b *testing.B) {
	const standing, perOp = 64, 256
	dropTail := func() qdisc.Qdisc { return qdisc.NewDropTail(1000) }
	models := []struct {
		kind  string
		queue func() qdisc.Qdisc
		build func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) topo.Link
	}{
		{"trace", dropTail, func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) topo.Link {
			return netem.NewTraceLink(s, trace.Constant("churn", 12e6), q, dst)
		}},
		{"cellular", func() qdisc.Qdisc { return abc.NewRouter(abc.DefaultRouterConfig()) }, func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) topo.Link {
			tr := trace.Cellular("churn", trace.CellParams{Seed: 1, Duration: 10 * sim.Second, MeanMbps: 24, OutageProb: 0.02})
			return netem.NewTraceLink(s, tr, q, dst)
		}},
		{"rate", dropTail, func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) topo.Link {
			return netem.NewRateLink(s, netem.ConstRate(12e6), q, dst)
		}},
		{"wifi", dropTail, func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) topo.Link {
			return wifi.NewLink(s, wifi.DefaultLinkConfig(), q, dst, nil)
		}},
		{"lazy", dropTail, func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) topo.Link {
			l := netem.NewRateLink(s, 12e6, q, dst)
			l.ServeLazily(&oneHandoff{l.Handoff(0, dst)})
			return l
		}},
	}
	for _, m := range models {
		for _, mask := range []obs.Cat{0, obs.CatPacket} {
			rec := "off"
			if mask != 0 {
				rec = "packet"
			}
			b.Run("kind="+m.kind+"/rec="+rec, func(b *testing.B) {
				s := sim.New(1)
				q := m.queue()
				var l topo.Link
				var delivered, stopAt int64
				l = m.build(s, q, packet.NodeFunc(func(p *packet.Packet) {
					if delivered++; delivered == stopAt {
						s.Halt()
					}
					l.Recv(p)
				}))
				if mask != 0 {
					l.(obs.Sink).SetObs(obs.NewRecorder(1<<10, mask), 0)
				}
				for j := 0; j < standing; j++ {
					l.Recv(packet.NewData(1, int64(j), packet.MTU, 0))
				}
				// churn runs until n more packets have been delivered (the
				// AP finishes the batch that reaches n).
				churn := func(n int64) {
					start := delivered
					stopAt = start + n
					s.Run()
					if got := delivered - start; got < n || got >= n+standing {
						b.Fatalf("%d packets delivered, want %d", got, n)
					}
				}
				churn(1 << 15) // queue ring, event slab and batch slice at size
				b.ReportAllocs()
				b.ResetTimer()
				churn(int64(b.N) * perOp)
				inService := q.Counters().DequeuedPackets - l.DeliveredBytes()/packet.MTU
				if int64(q.Len())+inService != standing {
					b.Fatalf("%d queued + %d in service, want the standing %d", q.Len(), inService, standing)
				}
			})
		}
	}
}

// oneHandoff is the stretch behind a lazily served link whose every
// packet goes to one place.
type oneHandoff struct{ h netem.Handoff }

func (o *oneHandoff) Handoff(*packet.Packet) *netem.Handoff { return &o.h }

// BenchmarkForwardHop measures one forwarding decision on the per-packet
// path: a junction's (flow, direction) table lookup plus the edge's
// up/down gate. The routing refactor moved every hop onto this path, so
// it must stay 0 allocs/op (enforced via bench_thresholds.txt).
func BenchmarkForwardHop(b *testing.B) {
	s := sim.New(1)
	g := topo.New(s)
	a, c := g.AddNode("a"), g.AddNode("b")
	// Pure edge (no link, no delay): the measured work is exactly
	// node table lookup → edge gate → terminal delivery.
	id, err := g.AddEdge("hop", a, c, 0, topo.Impairments{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{id}, 0, sink)
	if err != nil {
		b.Fatal(err)
	}
	p := packet.NewData(1, 0, packet.MTU, 0)
	defer p.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entry.Recv(p)
	}
	if sink.Count != b.N {
		b.Fatalf("delivered %d, want %d", sink.Count, b.N)
	}
}

// BenchmarkTracedHop is BenchmarkForwardHop with the flight recorder
// attached at an active mask: the same forwarding decision now also
// emits a hop event into the ring. Enabled tracing must stay 0
// allocs/op too (bench_thresholds.txt) — the recorder preallocates its
// ring and Emit writes in place — so the only cost of tracing is the
// mask check plus the ring store, never the garbage collector.
func BenchmarkTracedHop(b *testing.B) {
	s := sim.New(1)
	g := topo.New(s)
	rec := obs.NewRecorder(1<<16, obs.CatHop|obs.CatPacket)
	g.SetRecorder(rec)
	a, c := g.AddNode("a"), g.AddNode("b")
	id, err := g.AddEdge("hop", a, c, 0, topo.Impairments{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	sink := &packet.Sink{}
	entry, err := g.RouteFlow(1, false, []int{id}, 0, sink)
	if err != nil {
		b.Fatal(err)
	}
	p := packet.NewData(1, 0, packet.MTU, 0)
	defer p.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entry.Recv(p)
	}
	b.StopTimer()
	if sink.Count != b.N {
		b.Fatalf("delivered %d, want %d", sink.Count, b.N)
	}
	if rec.Total() < uint64(b.N) {
		b.Fatalf("recorded %d events, want >= %d — tracing was not active", rec.Total(), b.N)
	}
}

// BenchmarkFIBLookup measures a mid-route junction's forwarding decision
// under class aggregation: eight flows share one route, so the junction
// holds a single FIB entry and the measured work is the class lookup
// plus the next-hop gate. Must stay 0 allocs/op (bench_thresholds.txt) —
// the aggregated table is the per-packet fast path for every
// table-backed hop in the simulator.
func BenchmarkFIBLookup(b *testing.B) {
	s := sim.New(1)
	g := topo.New(s)
	a, m, c := g.AddNode("a"), g.AddNode("m"), g.AddNode("c")
	// Pure edges (no link, no delay): the junction m's table lookup
	// dominates the measured path.
	e1, err := g.AddEdge("in", a, m, 0, topo.Impairments{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	e2, err := g.AddEdge("out", m, c, 0, topo.Impairments{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	sinks := make([]*packet.Sink, 8)
	var entry packet.Node
	for f := range sinks {
		sinks[f] = &packet.Sink{}
		entry, err = g.RouteFlow(f+1, false, []int{e1, e2}, 0, sinks[f])
		if err != nil {
			b.Fatal(err)
		}
	}
	p := packet.NewData(8, 0, packet.MTU, 0)
	defer p.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entry.Recv(p)
	}
	if sinks[7].Count != b.N {
		b.Fatalf("delivered %d, want %d", sinks[7].Count, b.N)
	}
}

// BenchmarkHybridBackground measures the hybrid fluid/packet mode's
// headline property: simulation cost is constant in the background user
// count. Each sub-benchmark runs the same packet-level foreground (one
// backlogged ABC flow on a rate link), with a fluid "const" aggregate
// standing in for 0, a thousand, or a million background users. The
// fluid aggregate is a fixed-step rate process, so wall time and
// allocs/op must stay near-flat from users=0 to users=1000000 — the
// ceilings in bench_thresholds.txt enforce the alloc side, and the
// acceptance bar is users=1000000 within 2x of users=0.
func BenchmarkHybridBackground(b *testing.B) {
	for _, users := range []int{0, 1_000, 1_000_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			spec := exp.Spec{
				Seed:     1,
				Duration: 5 * sim.Second,
				Links: []exp.LinkSpec{{
					Rate:  netem.ConstRate(60e6),
					Qdisc: exp.QdiscSpec{Kind: "abc", Buffer: 250},
				}},
				Flows: []exp.FlowSpec{{Scheme: "ABC"}},
			}
			if users > 0 {
				spec.Background = []exp.BackgroundSpec{{
					Edge: "fwd0", Kind: "const", Flows: users,
					RateMbps: float64(users) * 48 / 1e6,
				}}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, err := exp.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if res.Flows[0].TputMbps <= 0 {
					b.Fatal("foreground starved")
				}
			}
		})
	}
}

// BenchmarkWorkloadChurn measures the dynamic-flow machinery: one run of
// an open-loop workload churning ~160 short flows through a rate link
// (spawn → route → transfer → complete → tear down, the flow unrouted
// with its last packet and its route slot, endpoint, receiver, source,
// algorithm, callbacks and tail wires recycled for a later arrival),
// once per scheme family: Cubic (a window), ABC (two windows and the
// marks) and BBR (paced, with a filter whose array survives Reset). The
// committed allocs/op ceilings in bench_thresholds.txt keep flow
// spawning off the alloc fast path: a flow allocates nothing past the
// run's fixed cost once the live set has stopped growing, so a
// regression here means per-flow wiring or per-packet allocation crept
// back in. Recycling moved Cubic from ≈ 2066 to ≈ 375 allocs/op,
// resetting the algorithm in place to ≈ 206, and route slots in place
// of the graph's tables keyed by flow id to ≈ 192 (-benchtime 3x).
func BenchmarkWorkloadChurn(b *testing.B) {
	for _, scheme := range []string{"Cubic", "ABC", "BBR"} {
		b.Run("scheme="+scheme, func(b *testing.B) {
			spec := exp.Spec{
				Seed:     1,
				Duration: 8 * sim.Second,
				Warmup:   sim.Second,
				Links: []exp.LinkSpec{{
					Kind:  "rate",
					Rate:  netem.ConstRate(20e6),
					Qdisc: exp.QdiscSpec{Kind: "droptail", Buffer: 250},
				}},
				Workloads: []exp.WorkloadSpec{{
					Scheme:  scheme,
					Arrival: app.Deterministic{Gap: 50 * sim.Millisecond},
					Sizes:   app.FixedSize{Bytes: 20 * 1024},
				}},
			}
			b.ReportAllocs()
			var completed int
			for i := 0; i < b.N; i++ {
				res, _, err := exp.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				completed = res.Workloads[0].Completed
			}
			b.ReportMetric(float64(completed), "flows_completed")
		})
	}
}
