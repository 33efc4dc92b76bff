package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
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
// draws, no state the simulation can observe. Each case gets RunOptions
// of its own, so it can also require every traced drop
// cause to have one event per packet the ledger booked under it (the
// sampler publishes the ledger as abc_drops_total, summed over the
// case's runs). The final assertions that events were captured, samples
// published and every traced cause met keep the test from passing
// vacuously if the wiring breaks.
func TestGoldenTracingInvariance(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden corpus (%v)", err)
	}
	want := map[string]goldenEntry{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", goldenPath, err)
	}
	var events, simEvents int64
	seen := map[obs.Kind]int64{}
	for _, c := range goldenCases() {
		c := c
		rec, reg := obs.NewRecorder(1<<16, obs.CatAll), obs.NewRegistry()
		t.Run(c.name, func(t *testing.T) {
			v, err := c.run(RunOptions{Trace: rec, Metrics: reg})
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

// TestRunOptionsArePerRun: a run's observers are its own. One spec runs
// on four goroutines at once, one of them with RunOptions{Trace,
// Metrics} and three with none. Every run prints the same result, the
// observed run's recorder holds exactly the events a traced run of the
// spec records alone, and its registry exactly what a metered run of the
// spec publishes alone: nothing leaks in from the unobserved runs.
func TestRunOptionsArePerRun(t *testing.T) {
	t.Parallel()
	spec := fig7Spec(1)
	spec.Duration = 4 * sim.Second
	observed := func() RunOptions {
		return RunOptions{Trace: obs.NewRecorder(1<<18, obs.CatAll), Metrics: obs.NewRegistry()}
	}
	printed := func(o RunOptions) (string, error) {
		res, pooled, err := o.Run(spec)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		PrintResult(&sb, res, pooled)
		fmt.Fprintf(&sb, "events %d\n", res.Graph.S.Executed())
		return sb.String(), nil
	}

	alone := observed()
	want, err := printed(alone)
	if err != nil {
		t.Fatal(err)
	}
	if alone.Trace.Total() == 0 || alone.Trace.Overwritten() != 0 {
		t.Fatalf("a lone traced run recorded %d events, %d overwritten: want some, none lost", alone.Trace.Total(), alone.Trace.Overwritten())
	}

	runs := []RunOptions{observed(), {}, {}, {}}
	got := make([]string, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	wg.Add(len(runs))
	for i := range runs {
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = printed(runs[i])
		}(i)
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("run %d (observed: %t) printed\n%s\nwant, as a lone run printed,\n%s", i, i == 0, got[i], want)
		}
	}
	shared := runs[0]
	if n, m := shared.Trace.Total(), alone.Trace.Total(); n != m || !slices.Equal(shared.Trace.Snapshot(), alone.Trace.Snapshot()) {
		t.Errorf("the observed run recorded %d events and a lone traced run %d, or the same number of different events", n, m)
	}
	if got, want := shared.Metrics.Snapshot(), alone.Metrics.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("the observed run's registry holds\n%v\nwant, as a lone metered run published,\n%v", got, want)
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
// error naming the cell instead of killing the sweep, and that the pool
// keeps draining after the panic (every cell runs), on one worker and on
// four.
func TestForEachCellPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ran := make([]bool, 3)
		err := forEachCell(RunOptions{}, 3, func(i int) string {
			return []string{"a", "b", "c"}[i]
		}, func(i int) error {
			ran[i] = true
			if i == 1 {
				panic("boom")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: panic swallowed", procs)
		}
		for _, frag := range []string{"cell b", "panicked", "boom"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("GOMAXPROCS=%d: error %q missing %q", procs, err, frag)
			}
		}
		for i, r := range ran {
			if !r {
				t.Errorf("GOMAXPROCS=%d: cell %d did not run after sibling panic", procs, i)
			}
		}
	}
}

// TestForEachCellErrorLabel asserts plain errors come back wrapped with
// the cell's identity and still unwrap to the original.
func TestForEachCellErrorLabel(t *testing.T) {
	sentinel := errors.New("cell exploded")
	err := forEachCell(RunOptions{}, 2, func(i int) string {
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

// TestMetricsSampling runs a small scenario with live metrics on and
// checks the registry ends up with the advertised families: per-edge
// queue gauges and discipline drops on every discipline, token and mark
// series on an ABC one, per-flow cwnd, and the sim-progress pair
// read by the progress line — which must end on the run's duration
// whether the last one-second tick fell on it (2 s) or short of it
// (2.5 s).
func TestMetricsSampling(t *testing.T) {
	t.Parallel()
	common := []string{
		`abc_queue_pkts{edge="fwd0"}`,
		`abc_queue_bytes{edge="fwd0"}`,
		`abc_qdisc_drops_total{edge="fwd0"}`,
		`abc_flow_cwnd_pkts{flow="0"}`,
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
	for _, dur := range []sim.Time{2 * sim.Second, 2500 * sim.Millisecond} {
		for _, tc := range cases {
			reg := obs.NewRegistry()
			_, _, err := (RunOptions{Metrics: reg}).Run(Spec{
				Seed:     1,
				Duration: dur,
				Warmup:   500 * sim.Millisecond,
				RTT:      50 * sim.Millisecond,
				Links:    []LinkSpec{{Rate: netem.ConstRate(10e6), Qdisc: tc.qdisc}},
				Flows:    []FlowSpec{{Scheme: tc.scheme}},
			})
			if err != nil {
				t.Fatal(err)
			}
			have := map[string]obs.Sample{}
			for _, s := range reg.Snapshot() {
				have[s.Name] = s
			}
			for _, name := range append(common, tc.extra...) {
				if _, ok := have[name]; !ok {
					t.Errorf("%s, dur %v: registry missing %s after a metered run", tc.scheme, dur, name)
				}
			}
			qd := have[`abc_qdisc_drops_total{edge="fwd0"}`].Value
			if tc.drops && qd <= 0 {
				t.Errorf("%s, dur %v: abc_qdisc_drops_total = %g, want the shallow buffer's drops", tc.scheme, dur, qd)
			}
			if booked := have[`abc_drops_total{cause="refused"}`].Value + have[`abc_drops_total{cause="aqm"}`].Value; booked != qd {
				t.Errorf("%s, dur %v: the ledger booked %g refused and AQM drops, the discipline dropped %g", tc.scheme, dur, booked, qd)
			}
			if s := have[obs.MetricSimSeconds]; s.Value != dur.Seconds() {
				t.Errorf("%s, dur %v: final %s = %g, want the run duration", tc.scheme, dur, obs.MetricSimSeconds, s.Value)
			}
			if s := have[obs.MetricSimEvents]; s.Value <= 0 {
				t.Errorf("%s, dur %v: %s = %g, want > 0", tc.scheme, dur, obs.MetricSimEvents, s.Value)
			}
		}
	}
}

// TestFig12OnSharedPipeline: a Fig. 12 cell is a Spec on the one run
// path, so whatever observes every other run observes it — the metrics
// sampler sees its bottleneck (chain link "fwd0") and its events, the
// flight recorder carries its packet events, and the short flows are a workload
// with its accounting: none refused at the heaviest load, every spawned
// one either completed or still in flight.
func TestFig12OnSharedPipeline(t *testing.T) {
	t.Parallel()
	rec, reg := obs.NewRecorder(1<<16, obs.CatAll), obs.NewRegistry()
	cfg := Fig12Config{Runs: 1, Duration: 5 * sim.Second, Loads: []float64{0.5}, Seed: 1}
	if _, err := fig12WeightPolicy(RunOptions{Trace: rec, Metrics: reg}, "maxmin", cfg); err != nil {
		t.Fatal(err)
	}
	have := map[string]float64{}
	for _, s := range reg.Snapshot() {
		have[s.Name] = s.Value
	}
	if _, ok := have[`abc_queue_pkts{edge="fwd0"}`]; !ok {
		t.Error(`registry has no abc_queue_pkts{edge="fwd0"} after a metered fig12 cell`)
	}
	if have[obs.MetricSimEvents] <= 0 {
		t.Errorf("%s = %g after a metered fig12 cell, want > 0", obs.MetricSimEvents, have[obs.MetricSimEvents])
	}
	enqueued := 0
	for _, e := range rec.Snapshot() {
		if e.Kind == obs.EvEnqueue {
			enqueued++
		}
	}
	if enqueued == 0 {
		t.Error("trace of a fig12 cell carries no packet events")
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

// tracedKinds runs fn with options that attach a flight recorder at
// mask and returns how many events of each kind it recorded.
func tracedKinds(t *testing.T, mask obs.Cat, fn func(o RunOptions)) map[obs.Kind]int64 {
	t.Helper()
	rec := obs.NewRecorder(1<<18, mask)
	fn(RunOptions{Trace: rec})
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
	t.Parallel()
	rc := abc.DefaultRouterConfig()
	rc.Limit = 1000
	var res *Result
	kinds := tracedKinds(t, obs.CatPacket|obs.CatMark, func(o RunOptions) {
		var err error
		res, _, err = o.Run(Spec{
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
	t.Parallel()
	spec := fig7Spec(1)
	spec.Duration = 30 * sim.Second
	var res *Result
	kinds := tracedKinds(t, obs.CatMark, func(o RunOptions) {
		var err error
		if res, _, err = o.Run(spec); err != nil {
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
	t.Parallel()
	for _, bursty := range []bool{false, true} {
		var pts []LossyPoint
		kinds := tracedKinds(t, obs.CatPacket, func(o RunOptions) {
			var err error
			if pts, err = lossyLink(o, []string{"ABC"}, []float64{0.01}, bursty, 8*sim.Second, 1); err != nil {
				t.Fatal(err)
			}
		})
		if drops := pts[0].ImpairDrops; drops == 0 || kinds[obs.EvImpairDrop] != drops {
			t.Errorf("bursty=%t: %d impair_drop events, %d impairment drops counted", bursty, kinds[obs.EvImpairDrop], drops)
		}
	}
}
