package exp

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"abc/internal/abc"
	"abc/internal/netem"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sched"
	"abc/internal/sim"
	"abc/internal/wifi"
)

// TestGoldenTracingInvariance re-runs the full golden corpus with the
// flight recorder attached at full category mask and metrics sampling
// on, and requires every digest to stay byte-identical to the committed
// corpus: both must be purely passive — no scheduled events, no RNG
// draws, no state the simulation can observe. Each case gets a recorder
// and a registry of its own, so it can also require every traced drop
// cause to have one event per packet the ledger booked under it (the
// sampler publishes the ledger as abc_drops_total, summed over the
// case's runs). The final assertions that events were captured, samples
// published and every traced cause met keep the test from passing
// vacuously if the wiring breaks.
func TestGoldenTracingInvariance(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden corpus (%v)", err)
	}
	want := map[string]goldenEntry{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", goldenPath, err)
	}
	defer EnableTracing(nil)
	defer EnableMetrics(nil, 0)
	var events, simEvents int64
	seen := map[obs.Kind]int64{}
	for _, c := range goldenCases() {
		c := c
		rec := obs.NewRecorder(1<<16, obs.CatAll)
		EnableTracing(rec)
		reg := obs.NewRegistry()
		EnableMetrics(reg, 250*sim.Millisecond)
		t.Run(c.name, func(t *testing.T) {
			v, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			d, _, err := goldenDigest(v)
			if err != nil {
				t.Fatal(err)
			}
			if w, ok := want[c.name]; ok && w.Full != d {
				t.Errorf("digest changed with tracing and metrics enabled:\n got %s\nwant %s\nneither may perturb the simulation", d, w.Full)
			}
			for k, cause := range dropEvents {
				booked := reg.Counter(`abc_drops_total{cause="` + cause.String() + `"}`).Value()
				traced := int64(rec.Emitted(k))
				if traced != booked {
					t.Errorf("%d %s events, %d packets the ledger booked as %s", traced, k, booked, cause)
				}
				seen[k] += traced
			}
		})
		events += int64(rec.Total())
		simEvents += reg.Counter(obs.MetricSimEvents).Value()
	}
	if events == 0 {
		t.Fatal("full-mask recorder captured no events across the corpus — trace wiring is dead")
	}
	if simEvents == 0 {
		t.Fatal("metrics registry saw no simulator events across the corpus — sampler wiring is dead")
	}
	for k := range dropEvents {
		if seen[k] == 0 {
			t.Errorf("no %s event across the corpus: its cause goes unchecked", k)
		}
	}
}

// dropEvents maps every traced drop event to the cause the dropped
// packet is booked under.
var dropEvents = map[obs.Kind]packet.Cause{
	obs.EvQdiscDrop:    packet.Refused,
	obs.EvAQMDrop:      packet.AQM,
	obs.EvUnroutedDrop: packet.Unrouted,
	obs.EvDownDrop:     packet.LinkDown,
	obs.EvAttackDrop:   packet.Adversary,
	obs.EvImpairDrop:   packet.Impair,
}

// TestForEachCellPanic asserts a panicking cell is converted into an
// error naming the cell instead of killing the sweep. The worker pool
// keeps draining after the panic (every cell runs); the sequential path
// keeps its fail-fast contract and stops at the failing cell.
func TestForEachCellPanic(t *testing.T) {
	defer func(p int) { Parallelism = p }(Parallelism)
	for _, par := range []int{1, 4} {
		Parallelism = par
		ran := make([]bool, 3)
		err := forEachCell(3, func(i int) string {
			return []string{"a", "b", "c"}[i]
		}, func(i int) error {
			ran[i] = true
			if i == 1 {
				panic("boom")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("par=%d: panic swallowed", par)
		}
		for _, frag := range []string{"cell b", "panicked", "boom"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("par=%d: error %q missing %q", par, err, frag)
			}
		}
		if par > 1 {
			for i, r := range ran {
				if !r {
					t.Errorf("par=%d: cell %d did not run after sibling panic", par, i)
				}
			}
		}
	}
}

// TestForEachCellErrorLabel asserts plain errors come back wrapped with
// the cell's identity and still unwrap to the original.
func TestForEachCellErrorLabel(t *testing.T) {
	sentinel := errors.New("cell exploded")
	err := forEachCell(2, func(i int) string {
		return []string{"scheme=ABC seed=7", "scheme=Cubic seed=7"}[i]
	}, func(i int) error {
		if i == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("wrapped error lost the original: %v", err)
	}
	if !strings.Contains(err.Error(), "cell scheme=Cubic seed=7") {
		t.Fatalf("error %q missing cell identity", err)
	}
}

// TestMetricsSampling runs a small scenario with live metrics enabled
// and checks the registry ends up with the advertised families: per-edge
// queue gauges and discipline drops on every discipline, token and mark
// series on an ABC one, per-flow cwnd, the coordinator's counters (one
// shard is a coordinator run like any other), and the sim-progress pair
// read by the progress line — which must end on the run's duration
// whether the last tick fell on it (200 ms) or short of it (300 ms).
func TestMetricsSampling(t *testing.T) {
	common := []string{
		`abc_queue_pkts{edge="fwd0"}`,
		`abc_queue_bytes{edge="fwd0"}`,
		`abc_qdisc_drops_total{edge="fwd0"}`,
		`abc_flow_cwnd_pkts{flow="0"}`,
		`abc_shard_events_total{shard="0"}`,
		"abc_shard_rounds_total",
		obs.MetricSimSeconds,
		obs.MetricSimEvents,
	}
	for c := packet.Refused; c < packet.NumCauses; c++ {
		common = append(common, `abc_drops_total{cause="`+c.String()+`"}`)
	}
	// The discipline's drop counter is read through qdisc.Qdisc, so a
	// Cubic flow overrunning a shallow CoDel buffer reports its drops
	// exactly as an ABC router would — and the ledger books each of them,
	// refused at the port or dropped on CoDel's dequeue side.
	cases := []struct {
		scheme string
		qdisc  QdiscSpec
		extra  []string
		drops  bool
	}{
		{scheme: "ABC", qdisc: QdiscSpec{Kind: "abc"}, extra: []string{
			`abc_tokens{edge="fwd0"}`,
			`abc_marks_total{edge="fwd0",kind="accel"}`,
			`abc_flow_reverse_brakes{flow="0"}`,
		}},
		{scheme: "Cubic", qdisc: QdiscSpec{Kind: "codel", Buffer: 20}, drops: true},
	}
	for _, period := range []sim.Time{200 * sim.Millisecond, 300 * sim.Millisecond} {
		for _, tc := range cases {
			reg := obs.NewRegistry()
			EnableMetrics(reg, period)
			_, _, err := Run(Spec{
				Seed:     1,
				Duration: 2 * sim.Second,
				Warmup:   500 * sim.Millisecond,
				RTT:      50 * sim.Millisecond,
				Links:    []LinkSpec{{Rate: netem.ConstRate(10e6), Qdisc: tc.qdisc}},
				Flows:    []FlowSpec{{Scheme: tc.scheme}},
			})
			EnableMetrics(nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			have := map[string]obs.Sample{}
			for _, s := range reg.Snapshot() {
				have[s.Name] = s
			}
			for _, name := range append(common, tc.extra...) {
				if _, ok := have[name]; !ok {
					t.Errorf("%s, period %v: registry missing %s after a metered run", tc.scheme, period, name)
				}
			}
			qd := have[`abc_qdisc_drops_total{edge="fwd0"}`].Value
			if tc.drops && qd <= 0 {
				t.Errorf("%s, period %v: abc_qdisc_drops_total = %g, want the shallow buffer's drops", tc.scheme, period, qd)
			}
			if booked := have[`abc_drops_total{cause="refused"}`].Value + have[`abc_drops_total{cause="aqm"}`].Value; booked != qd {
				t.Errorf("%s, period %v: the ledger booked %g refused and AQM drops, the discipline dropped %g", tc.scheme, period, booked, qd)
			}
			if s := have[obs.MetricSimSeconds]; s.Value != 2 {
				t.Errorf("%s, period %v: final %s = %g, want 2 (the run duration)", tc.scheme, period, obs.MetricSimSeconds, s.Value)
			}
			if s := have[obs.MetricSimEvents]; s.Value <= 0 {
				t.Errorf("%s, period %v: %s = %g, want > 0", tc.scheme, period, obs.MetricSimEvents, s.Value)
			}
		}
	}
}

// TestFig12OnSharedPipeline: a Fig. 12 cell is a Spec on the one run
// path, so whatever observes every other run observes it — the metrics
// sampler sees its bottleneck (chain link "fwd0"), its events and its
// coordinator, the flight recorder carries the coordinator's horizon
// events next to the packet events, and the short flows are a workload
// with its accounting: none refused at the heaviest load, every spawned
// one either completed or still in flight.
func TestFig12OnSharedPipeline(t *testing.T) {
	rec := obs.NewRecorder(1<<16, obs.CatAll)
	EnableTracing(rec)
	defer EnableTracing(nil)
	reg := obs.NewRegistry()
	EnableMetrics(reg, 100*sim.Millisecond)
	defer EnableMetrics(nil, 0)

	cfg := Fig12Config{Runs: 1, Duration: 5 * sim.Second, Loads: []float64{0.5}, Seed: 1}
	if _, err := fig12WeightPolicy("maxmin", cfg); err != nil {
		t.Fatal(err)
	}
	have := map[string]float64{}
	for _, s := range reg.Snapshot() {
		have[s.Name] = s.Value
	}
	if _, ok := have[`abc_queue_pkts{edge="fwd0"}`]; !ok {
		t.Error(`registry has no abc_queue_pkts{edge="fwd0"} after a metered fig12 cell`)
	}
	for _, name := range []string{obs.MetricSimEvents, "abc_shard_rounds_total"} {
		if have[name] <= 0 {
			t.Errorf("%s = %g after a metered fig12 cell, want > 0", name, have[name])
		}
	}
	horizons := 0
	for _, e := range rec.Snapshot() {
		if e.Kind == obs.EvHorizon {
			horizons++
		}
	}
	if horizons == 0 {
		t.Error("trace of a fig12 cell carries no coordinator horizon events")
	}

	res, _, err := Run(fig12Spec("maxmin", 0.5, cfg.Duration, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 1 {
		t.Fatalf("%d workloads at load 0.5, want 1", len(res.Workloads))
	}
	w := &res.Workloads[0]
	if w.Spawned == 0 || w.Rejected != 0 || w.Spawned != w.Completed+w.Active {
		t.Errorf("short flows: spawned %d, completed %d, active %d, rejected %d; want spawned = completed + active > 0 and none rejected",
			w.Spawned, w.Completed, w.Active, w.Rejected)
	}
	if spec := fig12Spec("maxmin", 0, cfg.Duration, cfg.Seed); len(spec.Workloads) != 0 {
		t.Errorf("load 0 declares %d workloads, want none", len(spec.Workloads))
	}
}

// tracedKinds runs fn with a flight recorder attached at mask and returns
// how many events of each kind it recorded.
func tracedKinds(t *testing.T, mask obs.Cat, fn func()) map[obs.Kind]int64 {
	t.Helper()
	rec := obs.NewRecorder(1<<18, mask)
	EnableTracing(rec)
	defer EnableTracing(nil)
	fn()
	if rec.Overwritten() != 0 {
		t.Fatal("recorder ring too small for the run")
	}
	kinds := map[obs.Kind]int64{}
	for _, e := range rec.Snapshot() {
		kinds[e.Kind]++
	}
	return kinds
}

// TestWiFiEdgeTraced: the AP shares the netem links' port, so an ABC run
// over it is as visible to the flight recorder as one over a trace link —
// one enqueue event per admitted packet, one dequeue event per packet
// delivered (the A-MPDU in the air when the clock stops has left the
// queue and not yet been booked), one accel or brake event per marking
// decision of the router behind it.
func TestWiFiEdgeTraced(t *testing.T) {
	rc := abc.DefaultRouterConfig()
	rc.Limit = 1000
	var res *Result
	kinds := tracedKinds(t, obs.CatPacket|obs.CatMark, func() {
		var err error
		res, _, err = Run(Spec{
			Seed:     1,
			Duration: 5 * sim.Second,
			RTT:      60 * sim.Millisecond,
			Links: []LinkSpec{{
				Wifi:  &WiFiLinkSpec{Estimate: true},
				Qdisc: QdiscSpec{Kind: "abc", ABCConfig: &rc},
			}},
			Flows: []FlowSpec{{Scheme: "ABC"}},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	r := res.Qdiscs[0].(*abc.Router)
	st := r.Counters()
	if st.EnqueuedPackets == 0 || r.AccelMarked == 0 || r.BrakeMarked == 0 {
		t.Fatalf("run too quiet to test: counters %+v, accel %d, brake %d", st, r.AccelMarked, r.BrakeMarked)
	}
	if kinds[obs.EvEnqueue] != st.EnqueuedPackets || kinds[obs.EvQdiscDrop] != st.DroppedPackets {
		t.Errorf("%d enqueue and %d drop events, counters %+v", kinds[obs.EvEnqueue], kinds[obs.EvQdiscDrop], st)
	}
	if inAir := st.DequeuedPackets - kinds[obs.EvDequeue]; inAir < 0 || inAir > int64(wifi.DefaultLinkConfig().MaxBatch) {
		t.Errorf("%d dequeue events for %d dequeued packets: the difference is not one batch in the air", kinds[obs.EvDequeue], st.DequeuedPackets)
	}
	if kinds[obs.EvAccel] != r.AccelMarked || kinds[obs.EvBrake] != r.BrakeMarked {
		t.Errorf("%d accel and %d brake events, router counted %d and %d", kinds[obs.EvAccel], kinds[obs.EvBrake], r.AccelMarked, r.BrakeMarked)
	}
}

// TestDualQueueChildMarksTraced: on Fig. 7's dual-queue bottleneck the
// marking router is the composite's ABC child, and the composite hands it
// the recorder — every accel and brake it issues is an event.
func TestDualQueueChildMarksTraced(t *testing.T) {
	spec := fig7Spec(1)
	spec.Duration = 30 * sim.Second
	var res *Result
	kinds := tracedKinds(t, obs.CatMark, func() {
		var err error
		if res, _, err = Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	child := res.Qdiscs[0].(*sched.DualQueue).ABC
	if child.AccelMarked == 0 || child.BrakeMarked == 0 {
		t.Fatalf("ABC child marked %d accel, %d brake: run too quiet to test", child.AccelMarked, child.BrakeMarked)
	}
	if kinds[obs.EvAccel] != child.AccelMarked || kinds[obs.EvBrake] != child.BrakeMarked {
		t.Errorf("%d accel and %d brake events, the ABC child counted %d and %d",
			kinds[obs.EvAccel], kinds[obs.EvBrake], child.AccelMarked, child.BrakeMarked)
	}
}

// TestImpairDropsTraced: a packet the impairment stage discards leaves an
// event like every other drop cause, under random and under bursty loss.
func TestImpairDropsTraced(t *testing.T) {
	for _, bursty := range []bool{false, true} {
		var pts []LossyPoint
		kinds := tracedKinds(t, obs.CatPacket, func() {
			var err error
			if pts, err = lossyLink([]string{"ABC"}, []float64{0.01}, bursty, 8*sim.Second, 1); err != nil {
				t.Fatal(err)
			}
		})
		if drops := pts[0].ImpairDrops; drops == 0 || kinds[obs.EvImpairDrop] != drops {
			t.Errorf("bursty=%t: %d impair_drop events, %d impairment drops counted", bursty, kinds[obs.EvImpairDrop], drops)
		}
	}
}
