package exp

import (
	"runtime"
	"testing"

	"abc/internal/app"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/trace"
)

// TestShortFlowsABCBeatsCubicQueueing is the subsystem's acceptance
// check: in the shipped cellular short-flow scenario ABC must deliver
// the interactive traffic with a lower p95 queueing delay than Cubic.
func TestShortFlowsABCBeatsCubicQueueing(t *testing.T) {
	rows, err := shortFlows(Params{Schemes: []string{"ABC", "Cubic"}, Dur: 16 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]ShortFlowsResult{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
		if r.Completed == 0 {
			t.Errorf("%s: no short flows completed", r.Scheme)
		}
		if r.FCT.Count == 0 || r.FCT.P95Ms <= 0 {
			t.Errorf("%s: empty FCT distribution: %+v", r.Scheme, r.FCT)
		}
		if r.FCT.MeanSlowdown < 1 {
			t.Errorf("%s: mean slowdown %.2f below the physical floor of 1", r.Scheme, r.FCT.MeanSlowdown)
		}
		if r.Spawned != r.Completed+r.Active+r.Rejected {
			t.Errorf("%s: flow accounting leak: spawned %d != completed %d + active %d + rejected %d",
				r.Scheme, r.Spawned, r.Completed, r.Active, r.Rejected)
		}
	}
	abc, cubic := byScheme["ABC"], byScheme["Cubic"]
	if abc.QDelayP95 >= cubic.QDelayP95 {
		t.Errorf("ABC p95 queueing %.0f ms not below Cubic's %.0f ms", abc.QDelayP95, cubic.QDelayP95)
	}
}

// TestVideoExpQoE checks the ABR session produces coherent QoE: chunks
// download, the mean bitrate stays inside the ladder, and accounting
// (played + stalled vs wall clock) closes.
func TestVideoExpQoE(t *testing.T) {
	rows, err := videoExp(Params{Schemes: []string{"ABC", "Cubic"}, Dur: 16 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		q := r.QoE
		if q.Chunks == 0 {
			t.Fatalf("%s: no chunks downloaded", r.Scheme)
		}
		if q.MeanKbps < 300 || q.MeanKbps > 4300 {
			t.Errorf("%s: mean bitrate %.0f kbps outside the ladder", r.Scheme, q.MeanKbps)
		}
		// After startup the session is either playing or stalled, so the
		// two cannot exceed the wall clock.
		if q.PlayedS+q.RebufferS > 16+0.01 {
			t.Errorf("%s: played %.1f s + stalled %.1f s exceeds the 16 s run", r.Scheme, q.PlayedS, q.RebufferS)
		}
		if q.RebufferRatio < 0 || q.RebufferRatio > 1 {
			t.Errorf("%s: rebuffer ratio %.3f outside [0,1]", r.Scheme, q.RebufferRatio)
		}
	}
}

// TestRPCExpCalls checks the RPC clients cycle and pool their FCTs.
func TestRPCExpCalls(t *testing.T) {
	rows, err := rpcExp(Params{Schemes: []string{"ABC"}, Dur: 16 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Calls < rpcClients {
		t.Fatalf("only %d calls across %d clients", r.Calls, rpcClients)
	}
	if r.FCT.Count == 0 || r.FCT.MeanMs <= 0 {
		t.Errorf("empty pooled FCT: %+v", r.FCT)
	}
	if r.FCT.Count > r.Calls {
		t.Errorf("pooled FCT count %d exceeds calls %d", r.FCT.Count, r.Calls)
	}
	if r.LongTputMbps <= 0 {
		t.Error("bulk flow moved no data")
	}
}

// TestWorkloadArrivalAfterLinkDies covers the late-arrival edge: a flow
// spawned when the trace link has gone dark (a steps trace ending in a
// zero-rate segment) must wire up and sit there as a clean no-op — no
// panic, no unrouted drops, flow counted active at the end.
func TestWorkloadArrivalAfterLinkDies(t *testing.T) {
	// 12 Mbit/s for 4 s, then dead air for the rest of the period.
	tr := trace.Steps("dying", []float64{12e6, 12e6, 0, 0, 0, 0, 0, 0}, 2*sim.Second)
	spec := Spec{
		Seed:     1,
		Duration: 14 * sim.Second,
		Warmup:   sim.Second,
		Links:    []LinkSpec{{Trace: tr, Qdisc: QdiscSpec{Kind: "droptail", Buffer: 250}}},
		Workloads: []WorkloadSpec{{
			Scheme:  "Cubic",
			Class:   "late",
			Arrival: app.Deterministic{Gap: 6 * sim.Second}, // arrivals at 6 s and 12 s: both after the link died
			Sizes:   app.FixedSize{Bytes: 50 * 1024},
		}},
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &res.Workloads[0]
	if w.Spawned != 2 {
		t.Fatalf("spawned %d flows, want 2", w.Spawned)
	}
	if w.Completed != 0 {
		t.Errorf("%d flows completed over a dead link", w.Completed)
	}
	if w.Active != 2 {
		t.Errorf("active %d, want 2 stranded flows", w.Active)
	}
	if res.Drops != 0 {
		t.Errorf("%d unrouted drops: late flows were not wired onto the graph", res.Drops)
	}
}

// TestWorkloadArrivalWindowRespected: the arrival process must not spawn
// past Stop (or Duration), and a Start inside the run delays the first
// arrival.
func TestWorkloadArrivalWindowRespected(t *testing.T) {
	spec := Spec{
		Seed:     3,
		Duration: 10 * sim.Second,
		Warmup:   sim.Second,
		Links:    []LinkSpec{{Rate: netem.ConstRate(20e6), Kind: "rate", Qdisc: QdiscSpec{Kind: "droptail", Buffer: 250}}},
		Workloads: []WorkloadSpec{{
			Scheme:  "Cubic",
			Arrival: app.Deterministic{Gap: sim.Second},
			Sizes:   app.FixedSize{Bytes: 20 * 1024},
			Start:   4 * sim.Second,
			Stop:    8 * sim.Second,
		}},
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals at 5, 6, 7 s: the 8 s tick lands exactly on Stop and must
	// not fire.
	if got := res.Workloads[0].Spawned; got != 3 {
		t.Errorf("spawned %d flows, want 3 inside the [4 s, 8 s) window", got)
	}
}

// TestWorkloadMaxActiveCap: an overloaded open-loop process hits the
// active-flow cap and rejections are counted, not silently dropped.
func TestWorkloadMaxActiveCap(t *testing.T) {
	spec := Spec{
		Seed:     5,
		Duration: 6 * sim.Second,
		Warmup:   sim.Second,
		// 100 kbit/s cannot drain 100 KB flows arriving twice a second.
		Links: []LinkSpec{{Rate: netem.ConstRate(100e3), Kind: "rate", Qdisc: QdiscSpec{Kind: "droptail", Buffer: 50}}},
		Workloads: []WorkloadSpec{{
			Scheme:    "Cubic",
			Arrival:   app.Deterministic{Gap: 500 * sim.Millisecond},
			Sizes:     app.FixedSize{Bytes: 100 * 1024},
			MaxActive: 3,
		}},
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &res.Workloads[0]
	if w.Active > 3 {
		t.Errorf("active %d exceeds the cap of 3", w.Active)
	}
	if w.Rejected == 0 {
		t.Error("overload produced no rejections; cap is not enforced")
	}
}

// TestWorkloadValidation: malformed workloads fail as Spec errors before
// any wiring happens.
func TestWorkloadValidation(t *testing.T) {
	base := func() Spec {
		return Spec{
			Duration: 5 * sim.Second,
			Links:    []LinkSpec{{Rate: netem.ConstRate(10e6), Kind: "rate"}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"missing arrival", func(s *Spec) {
			s.Workloads = []WorkloadSpec{{Scheme: "Cubic", Sizes: app.FixedSize{Bytes: 1000}}}
		}},
		{"missing sizes", func(s *Spec) {
			s.Workloads = []WorkloadSpec{{Scheme: "Cubic", Arrival: app.Poisson{PerSec: 1}}}
		}},
		{"unknown scheme", func(s *Spec) {
			s.Workloads = []WorkloadSpec{{Scheme: "nope", Arrival: app.Poisson{PerSec: 1}, Sizes: app.FixedSize{Bytes: 1000}}}
		}},
		{"mesh fields on chain", func(s *Spec) {
			s.Workloads = []WorkloadSpec{{Scheme: "Cubic", Arrival: app.Poisson{PerSec: 1},
				Sizes: app.FixedSize{Bytes: 1000}, Path: []string{"x"}}}
		}},
		{"bad span", func(s *Spec) {
			s.Workloads = []WorkloadSpec{{Scheme: "Cubic", Arrival: app.Poisson{PerSec: 1},
				Sizes: app.FixedSize{Bytes: 1000}, EnterAt: 7}}
		}},
	}
	for _, tc := range cases {
		spec := base()
		tc.mut(&spec)
		if _, _, err := Run(spec); err == nil {
			t.Errorf("%s: Run accepted a malformed workload", tc.name)
		}
	}
}

// TestWorkloadOnlySpecRuns: a spec with workloads and no static flows is
// legal (the auto qdisc derives from the workload's scheme).
func TestWorkloadOnlySpecRuns(t *testing.T) {
	spec := Spec{
		Seed:     2,
		Duration: 10 * sim.Second,
		Warmup:   sim.Second,
		Links:    []LinkSpec{{Rate: netem.ConstRate(10e6), Kind: "rate", Qdisc: QdiscSpec{Kind: "auto", Buffer: 250}}},
		Workloads: []WorkloadSpec{{
			Scheme:  "ABC",
			Arrival: app.Deterministic{Gap: sim.Second},
			Sizes:   app.FixedSize{Bytes: 50 * 1024},
		}},
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads[0].Completed == 0 {
		t.Error("no workload flows completed on an idle 10 Mbit/s link")
	}
	if res.Drops != 0 {
		t.Errorf("%d unrouted drops", res.Drops)
	}
}

// TestWorkloadOnMesh: workloads route over mesh edges via Path/AckPath.
func TestWorkloadOnMesh(t *testing.T) {
	spec := Spec{
		Seed:     4,
		Duration: 10 * sim.Second,
		Warmup:   sim.Second,
		Nodes:    []string{"a", "b", "c"},
		Edges: []EdgeSpec{
			{Name: "ab", From: "a", To: "b", Link: LinkSpec{Kind: "rate", Rate: netem.ConstRate(10e6), Qdisc: QdiscSpec{Kind: "auto", Buffer: 250}}},
			{Name: "bc", From: "b", To: "c", Link: LinkSpec{Kind: "wire"}},
		},
		Workloads: []WorkloadSpec{{
			Scheme:  "Cubic",
			Arrival: app.Deterministic{Gap: sim.Second},
			Sizes:   app.FixedSize{Bytes: 50 * 1024},
			Path:    []string{"ab", "bc"},
		}},
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads[0].Completed == 0 {
		t.Error("no mesh workload flows completed")
	}
	if res.Drops != 0 {
		t.Errorf("%d unrouted drops on the mesh", res.Drops)
	}
}

// TestWorkloadAckPathDerivesAutoQdisc: an "auto" qdisc on a mesh edge
// traversed only by a workload's ACK route must derive from that
// workload's scheme (ABC → its router), not fall back to droptail — the
// reverse-path echo demotion machinery depends on it.
func TestWorkloadAckPathDerivesAutoQdisc(t *testing.T) {
	spec := Spec{
		Seed:     1,
		Duration: 6 * sim.Second,
		Warmup:   sim.Second,
		Nodes:    []string{"a", "b"},
		Edges: []EdgeSpec{
			{Name: "down", From: "a", To: "b", Link: LinkSpec{Kind: "rate", Rate: netem.ConstRate(10e6), Qdisc: QdiscSpec{Kind: "auto", Buffer: 250}}},
			{Name: "up", From: "b", To: "a", Link: LinkSpec{Kind: "rate", Rate: netem.ConstRate(2e6), Qdisc: QdiscSpec{Kind: "auto", Buffer: 250}}},
		},
		Workloads: []WorkloadSpec{{
			Scheme:  "ABC",
			Arrival: app.Deterministic{Gap: sim.Second},
			Sizes:   app.FixedSize{Bytes: 50 * 1024},
			Path:    []string{"down"},
			AckPath: []string{"up"},
		}},
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, isDroptail := res.EdgeQdiscs["up"].(*qdisc.DropTail); isDroptail {
		t.Error(`auto qdisc on the workload's ACK edge fell back to droptail; want the ABC router derived from the workload scheme`)
	}
}

// TestAppDriversDeterministic: every app driver's output is a pure
// function of (schemes, duration, seed), byte-identical between a
// one-worker pool (GOMAXPROCS=1) and a four-worker one.
func TestAppDriversDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := Params{Schemes: []string{"ABC", "Cubic"}, Dur: 10 * sim.Second, Seed: 1}
	for _, name := range []string{"shortflows", "video", "rpc"} {
		d, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			v1, err := d.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			seq, _, err := goldenDigest(v1)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(4)
			v2, err := d.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			par, _, err := goldenDigest(v2)
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Errorf("one-worker digest %s != four-worker digest %s", seq, par)
			}
		})
	}
}

// TestShortFlowEventBudget bounds what a churn of short flows costs the
// event queue: a 14-packet flow pays for its packets and a wake or two
// of its endpoint, not for a housekeeping poll every 10 ms of its life.
// Where the ACKs return over the implicit direct wire, a packet costs its
// trace-link opportunity (shared by the packets one opportunity carries),
// one event for its access tail and the ACK's return together (the tail
// folds the ACK into the arrival, netem.Wire.Carry), and its share of
// the endpoint's wakes: 2.15 events a delivered packet, 3.15 with the
// arrival and the ACK as two events, 5.3 with the periodic tick as well.
// Its twin routes the ACKs over a reverse link, which nothing folds: the
// data arrival, the reverse link's service and the ACK's arrival are an
// event each, 4.15 events a packet.
func TestShortFlowEventBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reverse []LinkSpec
		max     float64
	}{
		{"implicit ACK path", nil, 2.5},
		{"reverse link", []LinkSpec{{Rate: 24e6, Qdisc: QdiscSpec{Kind: "droptail", Buffer: 250}}}, 4.6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{
				Seed:         1,
				Duration:     8 * sim.Second,
				Warmup:       sim.Nanosecond, // count every delivery
				RTT:          100 * sim.Millisecond,
				Links:        []LinkSpec{{Trace: trace.Constant("c24", 24e6), Qdisc: QdiscSpec{Kind: "droptail", Buffer: 250}}},
				ReverseLinks: tc.reverse,
				Workloads: []WorkloadSpec{{
					Scheme:  "Cubic",
					Arrival: app.Poisson{PerSec: 60},
					Sizes:   app.FixedSize{Bytes: 20 << 10},
				}},
			}
			res, _, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			w := &res.Workloads[0]
			if w.Completed < 400 {
				t.Fatalf("only %d of %d flows completed", w.Completed, w.Spawned)
			}
			pkts := float64(w.Bytes) / packet.MTU
			perPkt := float64(res.Graph.S.Executed()) / pkts
			t.Logf("%d events, %.0f delivered packets: %.2f events a packet", res.Graph.S.Executed(), pkts, perPkt)
			if perPkt > tc.max {
				t.Errorf("%.2f events per delivered packet, want at most %.1f", perPkt, tc.max)
			}
		})
	}
}

// churnSpec is bench workload flow_churn's shape: one 40 Mbit/s DropTail
// link under two open-loop Poisson processes of 20 KiB flows, Cubic at
// 100/s and ABC at 77/s (about 72 % load).
func churnSpec(dur, stop sim.Time) Spec {
	return Spec{
		Seed:     1,
		Duration: dur,
		Warmup:   dur / 10,
		Links:    []LinkSpec{{Kind: "rate", Rate: netem.ConstRate(40e6), Qdisc: QdiscSpec{Kind: "droptail", Buffer: 250}}},
		Workloads: []WorkloadSpec{
			{Scheme: "Cubic", Arrival: app.Poisson{PerSec: 100}, Sizes: app.FixedSize{Bytes: 20 << 10}, Stop: stop},
			{Scheme: "ABC", Arrival: app.Poisson{PerSec: 77}, Sizes: app.FixedSize{Bytes: 20 << 10}, Stop: stop},
		},
	}
}

// TestFinishedFlowsLeaveNothing: a completed spawned flow is unrouted
// with its last packet, so what a run retains does not grow with the
// flows it churned through. The parent of this test kept every finished
// flow's routes, tails, receiver and endpoint reachable: ≈ 1.46 KB a
// flow.
func TestFinishedFlowsLeaveNothing(t *testing.T) {
	// Churn for 1.5 s, then four 100 MB flows that cannot finish by 2 s:
	// ids below the held workload's are all completed, the rest active.
	spec := churnSpec(2*sim.Second, 1500*sim.Millisecond)
	spec.Workloads = append(spec.Workloads, WorkloadSpec{
		Scheme: "Cubic", Class: "held", Start: 1500 * sim.Millisecond,
		Arrival: app.Deterministic{Gap: 100 * sim.Millisecond}, Sizes: app.FixedSize{Bytes: 100 << 20},
	})
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	churned := 0
	for _, w := range res.Workloads[:2] {
		if w.Active != 0 || w.Completed != w.Spawned {
			t.Fatalf("%s: %d of %d flows still active; the churn must finish before the held flows start", w.Class, w.Active, w.Spawned)
		}
		churned += w.Spawned
	}
	held := res.Workloads[2]
	if held.Active != held.Spawned || held.Spawned == 0 {
		t.Fatalf("held: %d of %d flows active, want all of at least one", held.Active, held.Spawned)
	}
	wrong, first := 0, -1
	for id := 0; id < churned+held.Spawned; id++ {
		for _, ack := range []bool{false, true} {
			if _, ok := res.Graph.RouteOf(id, ack); ok != (id >= churned) {
				wrong++
				if first < 0 {
					first = id
				}
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d route directions of %d flows disagree with completion (first: flow %d; ids below %d completed)",
			wrong, churned+held.Spawned, first, churned)
	}
	if res.Drops != 0 {
		t.Errorf("%d unrouted drops: a flow was torn down with packets in flight", res.Drops)
	}

	// Retained heap, with the Result held, between a ≈ 400-flow and a
	// ≈ 4000-flow run.
	retained := func(dur sim.Time) (uint64, int) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, _, err := Run(churnSpec(dur, 0))
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		spawned := res.Workloads[0].Spawned + res.Workloads[1].Spawned
		runtime.KeepAlive(res)
		return after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc), spawned
	}
	small, n1 := retained(2260 * sim.Millisecond)
	large, n2 := retained(22600 * sim.Millisecond)
	perFlow := (float64(large) - float64(small)) / float64(n2-n1)
	t.Logf("retained %d B after %d flows, %d B after %d: %.0f B per extra flow", small, n1, large, n2, perFlow)
	if perFlow >= 256 {
		t.Errorf("retained heap grows by %.0f B per finished flow, want < 256", perFlow)
	}
}

// recycleSpec churns paced (BBR), window (Cubic) and ABC flows of
// bounded-Pareto sizes through one 24 Mbit/s link whose 60-packet
// buffer overflows now and then, so flows lose packets, retransmit and
// reorder: every part of a spawned flow's storage is used before it is
// recycled.
func recycleSpec(dur sim.Time) Spec {
	sizes := app.BoundedPareto{Min: 4 << 10, Max: 400 << 10}
	return Spec{
		Seed:     7,
		Duration: dur,
		Warmup:   sim.Second,
		Links:    []LinkSpec{{Kind: "rate", Rate: netem.ConstRate(24e6), Qdisc: QdiscSpec{Kind: "droptail", Buffer: 60}}},
		Workloads: []WorkloadSpec{
			{Scheme: "BBR", Arrival: app.Poisson{PerSec: 40}, Sizes: sizes},
			{Scheme: "Cubic", Arrival: app.Poisson{PerSec: 60}, Sizes: sizes},
			{Scheme: "ABC", Arrival: app.Poisson{PerSec: 40}, Sizes: sizes},
		},
	}
}

// TestSpawnedFlowsRecycle: a drained spawned flow's endpoint, receiver,
// source, algorithm (Reset), callbacks and tail wires carry a later
// flow, so in steady state a spawned flow allocates almost nothing: what
// is left is the growth of the graph's per-flow class and tail slots, of
// the recorders and of the live set, 0.17–0.20 allocations per flow
// (the bound is 0.3). It was ≈ 12.6 before recycling and 1.6 while each
// flow still built its algorithm.
// Recycling moves no result: the counts, bytes and FCTs below were
// recorded with every flow built from scratch.
func TestSpawnedFlowsRecycle(t *testing.T) {
	run := func(dur sim.Time) (*Result, int) {
		res, _, err := Run(recycleSpec(dur))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, w := range res.Workloads {
			n += w.Spawned
		}
		return res, n
	}
	res, n8 := run(8 * sim.Second)
	want := []struct {
		class               string
		spawned, completed  int
		bytes               int64
		fctMeanMs, fctP95Ms float64
	}{
		{"w0", 325, 316, 4195500, 144.35319657664223, 365.367152},
		{"w1", 500, 483, 7009500, 208.8792122959429, 431.253432},
		{"w2", 335, 323, 4975500, 209.04480334507042, 421.732233},
	}
	for i, w := range want {
		got := &res.Workloads[i]
		st := got.Stats()
		if got.Class != w.class || got.Spawned != w.spawned || got.Completed != w.completed || got.Bytes != w.bytes ||
			st.MeanMs != w.fctMeanMs || st.P95Ms != w.fctP95Ms {
			t.Errorf("%s: spawned %d, completed %d, %d bytes, FCT mean %v p95 %v ms; want %+v",
				got.Class, got.Spawned, got.Completed, got.Bytes, st.MeanMs, st.P95Ms, w)
		}
	}
	if res.Ledger.Released[packet.Refused] == 0 {
		t.Error("no packet refused: the buffer must overflow for recycled flows to have lost and reordered")
	}

	_, n4 := run(4 * sim.Second)
	long := testing.AllocsPerRun(1, func() { run(8 * sim.Second) })
	short := testing.AllocsPerRun(1, func() { run(4 * sim.Second) })
	perFlow := (long - short) / float64(n8-n4)
	t.Logf("%.0f allocations over %d flows, %.0f over %d: %.2f per extra flow", long, n8, short, n4, perFlow)
	if perFlow > 0.3 {
		t.Errorf("%.2f allocations per spawned flow, want at most 0.3", perFlow)
	}
}
