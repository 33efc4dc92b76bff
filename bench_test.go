// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each benchmark
// runs a scaled-down version of the experiment and reports the paper's
// metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every reported number. The full-length versions are
// available through cmd/abcreport.
package abc_test

import (
	"testing"

	"abc/internal/app"
	"abc/internal/cc"
	"abc/internal/exp"
	"abc/internal/netem"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/trace"
)

// benchDur is the scaled simulation length for benchmarks.
const benchDur = 20 * sim.Second

// reportSummary publishes a summary's metrics on the benchmark.
func reportSummary(b *testing.B, prefix string, util, meanMs, p95Ms float64) {
	b.ReportMetric(util*100, prefix+"_util_%")
	b.ReportMetric(meanMs, prefix+"_mean_ms")
	b.ReportMetric(p95Ms, prefix+"_p95_ms")
}

// BenchmarkTable1Summary regenerates the §1 table: throughput and p95
// delay of each scheme normalized to ABC, averaged over cellular traces.
func BenchmarkTable1Summary(b *testing.B) {
	traces := []string{"Verizon1", "TMobile1", "ATT1"}
	for i := 0; i < b.N; i++ {
		bars, err := exp.Fig9Bars(nil, traces, benchDur, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range exp.SummaryTable(bars) {
				b.ReportMetric(row.NormTput, row.Scheme+"_norm_tput")
				b.ReportMetric(row.NormDelay, row.Scheme+"_norm_p95")
			}
		}
	}
}

// BenchmarkFig1Timeseries regenerates Fig. 1: the four-way LTE time
// series (Cubic bufferbloat, Verus oscillation, CoDel underutilization,
// ABC tracking).
func BenchmarkFig1Timeseries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := exp.Fig1Timeseries(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range runs {
				reportSummary(b, r.Scheme, r.Summary.Utilization, r.Summary.MeanMs, r.Summary.P95Ms)
			}
		}
	}
}

// BenchmarkFig2FeedbackMode regenerates Fig. 2: dequeue- vs enqueue-rate
// feedback p95 queuing delay.
func BenchmarkFig2FeedbackMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig2FeedbackMode(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.QDelayP95Dequeue, "dequeue_p95_ms")
			b.ReportMetric(r.QDelayP95Enqueue, "enqueue_p95_ms")
			b.ReportMetric(r.QDelayP95Enqueue/r.QDelayP95Dequeue, "ratio")
		}
	}
}

// BenchmarkFig3Fairness regenerates Fig. 3: Jain index of five staggered
// ABC flows with and without additive increase.
func BenchmarkFig3Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, err := exp.Fig3Fairness(true, 1)
		if err != nil {
			b.Fatal(err)
		}
		without, err := exp.Fig3Fairness(false, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(with.JainAllActive, "jain_with_AI")
			b.ReportMetric(without.JainAllActive, "jain_without_AI")
		}
	}
}

// BenchmarkFig4InterACK regenerates Fig. 4: the TIA-vs-batch-size slope
// against S/R.
func BenchmarkFig4InterACK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig4InterACK(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.FittedSlopeMs, "slope_ms_per_frame")
			b.ReportMetric(r.TheorySlopeMs, "theory_ms_per_frame")
		}
	}
}

// BenchmarkFig5RatePrediction regenerates Fig. 5: worst backlogged Wi-Fi
// rate-prediction error (paper: within 5%).
func BenchmarkFig5RatePrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.Fig5RatePrediction(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(exp.Fig5MaxErrorBacklogged(pts)*100, "worst_err_%")
		}
	}
}

// BenchmarkFig6NonABCBottleneck regenerates Fig. 6: tracking across
// wired/wireless bottleneck switches via the dual window.
func BenchmarkFig6NonABCBottleneck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig6NonABCBottleneck(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.TrackError*100, "track_err_%")
			b.ReportMetric(r.QDelayP95, "p95_qdelay_ms")
		}
	}
}

// BenchmarkFig7Coexistence regenerates Fig. 7: ABC and Cubic sharing a
// dual-queue bottleneck fairly.
func BenchmarkFig7Coexistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig7Coexistence(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Jain, "jain")
			b.ReportMetric(r.ABCQDelayP95, "abc_p95_qdelay_ms")
			b.ReportMetric(r.CubicQDelayP95, "cubic_p95_qdelay_ms")
		}
	}
}

// BenchmarkFig8Scatter regenerates Fig. 8a/b/c: per-scheme utilization
// and p95 delay on down, up and two-hop cellular paths.
func BenchmarkFig8Scatter(b *testing.B) {
	schemes := []string{"ABC", "Cubic", "Cubic+Codel", "BBR", "XCP"}
	kinds := []exp.ScatterKind{exp.Downlink, exp.Uplink, exp.UplinkDownlink}
	names := []string{"down", "up", "updown"}
	for i := 0; i < b.N; i++ {
		for k, kind := range kinds {
			sums, err := exp.Fig8Scatter(kind, schemes, benchDur, 1)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				for _, s := range sums {
					b.ReportMetric(s.Utilization*100, names[k]+"_"+s.Scheme+"_util_%")
					b.ReportMetric(s.P95Ms, names[k]+"_"+s.Scheme+"_p95_ms")
				}
			}
		}
	}
}

// BenchmarkFig9Bars regenerates Fig. 9: average utilization and p95 delay
// across the cellular corpus for every scheme.
func BenchmarkFig9Bars(b *testing.B) {
	traces := []string{"Verizon1", "Verizon2", "TMobile1", "ATT1"}
	for i := 0; i < b.N; i++ {
		bars, err := exp.Fig9Bars(nil, traces, benchDur, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, sch := range bars.Schemes {
				u, m, p := bars.Average(sch)
				reportSummary(b, sch, u, m, p)
			}
		}
	}
}

// BenchmarkFig10WiFi regenerates Fig. 10: single-user Wi-Fi comparison
// with the alternating MCS walk.
func BenchmarkFig10WiFi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := exp.Fig10WiFi(1, exp.AlternatingMCS(1), benchDur, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range sums {
				b.ReportMetric(s.TputMbps, s.Scheme+"_tput_mbps")
				b.ReportMetric(s.P95Ms, s.Scheme+"_p95_ms")
			}
		}
	}
}

// BenchmarkFig10WiFiTwoUsers regenerates Fig. 10b: the two-user shared-
// queue scenario.
func BenchmarkFig10WiFiTwoUsers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := exp.Fig10WiFi(2, exp.AlternatingMCS(1), benchDur, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range sums {
				b.ReportMetric(s.TputMbps, s.Scheme+"_tput_mbps")
				b.ReportMetric(s.P95Ms, s.Scheme+"_p95_ms")
			}
		}
	}
}

// BenchmarkFig11CrossTraffic regenerates Fig. 11: ideal-rate tracking
// with on-off Cubic cross traffic on the wired hop.
func BenchmarkFig11CrossTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig11CrossTraffic(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.TrackError*100, "track_err_%")
		}
	}
}

// BenchmarkFig12WeightPolicy regenerates Fig. 12: long-flow throughput
// under ABC's max-min policy vs RCP's zombie list at 25% short-flow load.
func BenchmarkFig12WeightPolicy(b *testing.B) {
	cfg := exp.Fig12Config{Runs: 2, Duration: benchDur, Loads: []float64{0.25}, Seed: 1}
	for i := 0; i < b.N; i++ {
		mm, err := exp.Fig12WeightPolicy("maxmin", cfg)
		if err != nil {
			b.Fatal(err)
		}
		zb, err := exp.Fig12WeightPolicy("zombie", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(mm[0].ABCMean, "maxmin_abc_mbps")
			b.ReportMetric(mm[0].CubicMean, "maxmin_cubic_mbps")
			b.ReportMetric(zb[0].ABCMean, "zombie_abc_mbps")
			b.ReportMetric(zb[0].CubicMean, "zombie_cubic_mbps")
		}
	}
}

// BenchmarkFig13AppLimited regenerates Fig. 13: a backlogged ABC flow
// among application-limited ABC flows.
func BenchmarkFig13AppLimited(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig13AppLimited(50, 1.0, benchDur, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Utilization*100, "util_%")
			b.ReportMetric(r.QDelayP95, "p95_qdelay_ms")
		}
	}
}

// BenchmarkFig14WiFiBrownian regenerates Fig. 14 (Appendix B): the
// Brownian-motion MCS walk.
func BenchmarkFig14WiFiBrownian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := exp.Fig10WiFi(1, exp.BrownianMCS(1), benchDur, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range sums {
				b.ReportMetric(s.TputMbps, s.Scheme+"_tput_mbps")
				b.ReportMetric(s.P95Ms, s.Scheme+"_p95_ms")
			}
		}
	}
}

// BenchmarkFig15MeanDelay regenerates Fig. 15 (Appendix C): mean
// per-packet delay across traces.
func BenchmarkFig15MeanDelay(b *testing.B) {
	traces := []string{"Verizon1", "TMobile1"}
	for i := 0; i < b.N; i++ {
		bars, err := exp.Fig9Bars(nil, traces, benchDur, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, sch := range bars.Schemes {
				_, m, _ := bars.Average(sch)
				b.ReportMetric(m, sch+"_mean_ms")
			}
		}
	}
}

// BenchmarkFig16Explicit regenerates Fig. 16 (Appendix D): ABC vs
// XCP/XCPw/RCP/VCP across traces.
func BenchmarkFig16Explicit(b *testing.B) {
	traces := []string{"Verizon1", "Verizon2", "ATT1"}
	for i := 0; i < b.N; i++ {
		bars, err := exp.Fig9Bars(exp.ExplicitSchemes, traces, benchDur, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, sch := range bars.Schemes {
				u, _, p := bars.Average(sch)
				b.ReportMetric(u*100, sch+"_util_%")
				b.ReportMetric(p, sch+"_p95_ms")
			}
		}
	}
}

// BenchmarkFig17SquareWave regenerates Fig. 17 (Appendix D): ABC, RCP and
// XCPw on the 12↔24 Mbit/s square wave.
func BenchmarkFig17SquareWave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := exp.Fig17SquareWave(nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rs {
				b.ReportMetric(r.Summary.Utilization*100, r.Scheme+"_util_%")
				b.ReportMetric(r.QDelayP95, r.Scheme+"_p95_qdelay_ms")
			}
		}
	}
}

// BenchmarkFig18RTTSweep regenerates Fig. 18 (Appendix E): RTT
// sensitivity for a scheme subset.
func BenchmarkFig18RTTSweep(b *testing.B) {
	schemes := []string{"ABC", "Cubic+Codel", "Cubic"}
	for i := 0; i < b.N; i++ {
		out, err := exp.Fig18RTTSweep(schemes, benchDur, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, rtt := range []int{20, 200} {
				for sch, s := range out[rtt] {
					b.ReportMetric(s.Utilization*100, sch+"_rtt"+itoa(rtt)+"_util_%")
				}
			}
		}
	}
}

// BenchmarkJainFairness regenerates the §6.5 fairness sweep.
func BenchmarkJainFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{2, 8, 32} {
			idx, err := exp.JainFairness(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(idx, "jain_n"+itoa(n))
			}
		}
	}
}

// BenchmarkPKABC regenerates §6.6's perfect-knowledge comparison.
func BenchmarkPKABC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.PKABC(benchDur, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.QDelayP95ABC, "abc_p95_qdelay_ms")
			b.ReportMetric(r.QDelayP95PK, "pk_p95_qdelay_ms")
			b.ReportMetric(r.ABC.Utilization*100, "abc_util_%")
			b.ReportMetric(r.PK.Utilization*100, "pk_util_%")
		}
	}
}

// BenchmarkStabilityRegion regenerates the Theorem 3.1 boundary sweep.
func BenchmarkStabilityRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.StabilityRegion()
		if i == b.N-1 {
			b.ReportMetric(r.Boundary, "boundary_delta_over_tau")
		}
	}
}

// BenchmarkSimulatorThroughput measures the raw event-processing rate of
// the substrate: one ABC flow on a constant link.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr := trace.Constant("bench", 24e6)
	for i := 0; i < b.N; i++ {
		_, _, err := exp.Run(exp.Spec{
			Seed: 1, Duration: 10 * sim.Second, RTT: 100 * sim.Millisecond,
			Links: []exp.LinkSpec{{Trace: tr}},
			Flows: []exp.FlowSpec{{Scheme: "ABC"}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// itoa is a minimal integer formatter to keep the benchmark metric names
// allocation-free.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

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
// packets in flight: a chained schedule plus a pop that promotes the
// successor (see DESIGN.md §2). Chain storage is the simulator's slab,
// so steady state must report 0 allocs/op.
func BenchmarkWireFIFO(b *testing.B) {
	s := sim.New(1)
	var w *netem.Wire
	// Each delivery sends the packet round again, 64 µs later.
	w = netem.NewWire(s, 64*sim.Microsecond, packet.NodeFunc(func(p *packet.Packet) { w.Recv(p) }))
	for j := 0; j < 64; j++ {
		w.Recv(packet.NewData(1, int64(j), packet.MTU, 0))
		s.RunUntil(s.Now() + sim.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := s.Executed()
	s.RunUntil(s.Now() + sim.Time(b.N)*sim.Microsecond)
	if got := s.Executed() - start; got != uint64(b.N) || s.Pending() != 64 {
		b.Fatalf("%d deliveries and %d in flight, want %d and 64", got, s.Pending(), b.N)
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

// BenchmarkEndpointAckClock measures one turn of the ACK clock: a data
// packet from cc.Endpoint over a wire to netem.Receiver and its ACK over
// a second wire back, 256 packets in flight. In steady state the
// endpoint's scoreboard ring, the receiver and both wires reuse what they
// hold, so it must report 0 allocs/op (enforced via bench_thresholds.txt).
func BenchmarkEndpointAckClock(b *testing.B) {
	s := sim.New(1)
	alg := &ackClockWindow{s: s, w: 256}
	back := netem.NewWire(s, 10*sim.Millisecond, nil)
	rcv := netem.NewReceiver(s, 1, back)
	ep := cc.NewEndpoint(s, 1, netem.NewWire(s, 10*sim.Millisecond, rcv), alg)
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

// BenchmarkPacketChurn measures one data/ACK exchange through the packet
// free-list (see DESIGN.md §2): steady state must report 0 allocs/op.
func BenchmarkPacketChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := packet.NewData(1, int64(i), packet.MTU, 0)
		p.ECN = packet.Accel
		a := packet.NewAck(p, int64(i)+1, 1)
		p.Release()
		a.Release()
	}
}

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

// BenchmarkShardedRun measures the conservative-lookahead coordinator
// end to end: the four-bottleneck ring at 1 shard (the plain sequential
// simulator) vs 4 shards (per-shard event queues, each owned by one of
// min(4, GOMAXPROCS, NumCPU) workers, with cross-shard mailbox handoff).
// The ring is too small for sharding to pay — bench workload
// mesh_shard2 is the one that measures the speedup — but on any host
// the two results are byte-identical (TestShardedMeshDigestInvariant). The
// allocs/op ceilings in bench_thresholds.txt keep the cross-shard
// handoff from allocating per packet: both sub-benchmarks simulate the
// same traffic, so their allocation gap is pure sharding overhead.
func BenchmarkShardedRun(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := exp.ShardedMesh(shards, 5*sim.Second, 1)
				if err != nil {
					b.Fatal(err)
				}
				if r.Drops != 0 {
					b.Fatalf("%d unrouted drops", r.Drops)
				}
			}
		})
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
		b.Run("users="+itoa(users), func(b *testing.B) {
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
// (spawn → route → transfer → complete → tear down). The committed
// allocs/op ceiling in bench_thresholds.txt keeps flow spawning off the
// alloc fast path — a regression here means per-flow wiring started
// allocating per packet instead of per flow.
func BenchmarkWorkloadChurn(b *testing.B) {
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
			Scheme:  "Cubic",
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
}
