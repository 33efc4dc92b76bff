package exp

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"

	"abc/internal/abc"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/trace"
)

// TestRunRejectsBadEnterAt: out-of-range EnterAt must be an error, not a
// silent clamp to link 0.
func TestRunRejectsBadEnterAt(t *testing.T) {
	base := Spec{
		Seed:     1,
		Duration: 2 * sim.Second,
		Links:    []LinkSpec{{Rate: netem.ConstRate(10e6)}},
	}
	for _, tc := range []struct {
		name string
		flow FlowSpec
	}{
		{"enter negative", FlowSpec{Scheme: "ABC", EnterAt: -1}},
		{"enter past end", FlowSpec{Scheme: "ABC", EnterAt: 1}},
		{"exit before enter", FlowSpec{Scheme: "ABC", EnterAt: 0, ExitAt: -2}},
		{"exit past end", FlowSpec{Scheme: "ABC", ExitAt: 2}},
		{"reverse without reverse links", FlowSpec{Scheme: "ABC", Dir: Reverse}},
	} {
		spec := base
		spec.Flows = []FlowSpec{tc.flow}
		if _, _, err := Run(spec); err == nil {
			t.Errorf("%s: Run accepted invalid flow %+v", tc.name, tc.flow)
		}
	}
}

// TestAutoQdiscDerivedPerLink: an "auto" qdisc on a link skipped by the
// first flow must derive from a flow that actually enters that link.
func TestAutoQdiscDerivedPerLink(t *testing.T) {
	res, _, err := Run(Spec{
		Seed:     1,
		Duration: 2 * sim.Second,
		Links: []LinkSpec{
			{Rate: netem.ConstRate(20e6)},
			{Rate: netem.ConstRate(20e6)},
		},
		Flows: []FlowSpec{
			// Flow 0 (Cubic) only traverses link 0; flow 1 (ABC) only
			// traverses link 1. Deriving both links from flows[0] — the
			// old behaviour — would leave ABC on a droptail bottleneck.
			{Scheme: "Cubic", EnterAt: 0, ExitAt: 1},
			{Scheme: "ABC", EnterAt: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Qdiscs[1].(*abc.Router); !ok {
		t.Errorf("link 1 qdisc = %T, want *abc.Router (derived from the ABC flow entering it)", res.Qdiscs[1])
	}
	if _, ok := res.Qdiscs[0].(*abc.Router); ok {
		t.Errorf("link 0 qdisc should not be an ABC router (only Cubic enters it)")
	}
}

// TestMultiHopCrossTraffic: cross flows that enter and leave the chain
// mid-path must deliver through exactly their spans, with no unrouted
// packets, and must contend with the main flow on the shared hop.
func TestMultiHopCrossTraffic(t *testing.T) {
	res, _, err := Run(Spec{
		Seed:     1,
		Duration: 10 * sim.Second,
		Warmup:   2 * sim.Second,
		RTT:      60 * sim.Millisecond,
		Links: []LinkSpec{
			{Rate: netem.ConstRate(30e6), Qdisc: QdiscSpec{Kind: "droptail", Buffer: 200}},
			{Rate: netem.ConstRate(12e6), Qdisc: QdiscSpec{Kind: "droptail", Buffer: 100}},
			{Rate: netem.ConstRate(30e6), Qdisc: QdiscSpec{Kind: "droptail", Buffer: 200}},
		},
		Flows: []FlowSpec{
			{Scheme: "Cubic"},                        // full path
			{Scheme: "Cubic", EnterAt: 1, ExitAt: 2}, // middle hop only
			{Scheme: "Cubic", EnterAt: 2},            // last hop only
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops != 0 {
		t.Fatalf("unrouted drops = %d, want 0", res.Drops)
	}
	for i := range res.Flows {
		if res.Flows[i].Bytes == 0 {
			t.Errorf("flow %d delivered no bytes", i)
		}
	}
	// Flows 0 and 1 share the 12 Mbit/s middle hop: together they cannot
	// exceed it, and both must get a nontrivial share.
	sum01 := res.Flows[0].TputMbps + res.Flows[1].TputMbps
	if sum01 > 13 {
		t.Errorf("flows sharing the 12 Mbit/s hop sum to %.1f Mbit/s", sum01)
	}
	if res.Flows[1].TputMbps < 1 {
		t.Errorf("cross flow on the middle hop starved: %.2f Mbit/s", res.Flows[1].TputMbps)
	}
	// Flow 2 only crosses the uncongested 30 Mbit/s hop and must do much
	// better than the bottlenecked flows.
	if res.Flows[2].TputMbps < res.Flows[0].TputMbps {
		t.Errorf("flow 2 (%.1f) should beat flow 0 (%.1f): it skips the bottleneck",
			res.Flows[2].TputMbps, res.Flows[0].TputMbps)
	}
}

// flowDigest is the gob-comparable core of a flow result.
type flowDigest struct {
	Scheme      string
	Bytes       int64
	TputMbps    float64
	MeanMs      float64
	P95Ms       float64
	QP95Ms      float64
	Lost, Retx  int64
	Drops       int64
	ImpairDrops int64
	PooledMean  float64
	PooledP95   float64
	Utilization float64
}

// digest flattens a result for byte-identical comparison.
func digest(res *Result, pooledMean, pooledP95 float64) []flowDigest {
	out := make([]flowDigest, len(res.Flows))
	for i := range res.Flows {
		f := &res.Flows[i]
		out[i] = flowDigest{
			Scheme:      f.Scheme,
			Bytes:       f.Bytes,
			TputMbps:    f.TputMbps,
			MeanMs:      f.Delay.Mean(),
			P95Ms:       f.Delay.P95(),
			QP95Ms:      f.QDelay.P95(),
			Lost:        f.Lost,
			Retx:        f.Retx,
			Drops:       res.Drops,
			ImpairDrops: res.Ledger.Released[packet.Impair],
			PooledMean:  pooledMean,
			PooledP95:   pooledP95,
			Utilization: res.Utilization,
		}
	}
	return out
}

// reverseCongestedSpec is the determinism regression scenario: a downlink
// trace bottleneck, a congested and impaired reverse path, heterogeneous
// per-flow RTTs and a reverse-direction cross flow.
func reverseCongestedSpec() Spec {
	return Spec{
		// Seed 3 (not 7): the per-edge name-seeded impairment RNG changed
		// which seeds overflow the 50-packet reverse buffer, and the test
		// below asserts visible ACK drops.
		Seed:     3,
		Duration: 8 * sim.Second,
		Warmup:   2 * sim.Second,
		RTT:      100 * sim.Millisecond,
		Links:    []LinkSpec{{Trace: trace.MustNamedCellular("Verizon1")}},
		ReverseLinks: []LinkSpec{{
			Rate:  netem.ConstRate(2e6),
			Qdisc: QdiscSpec{Kind: "droptail", Buffer: 50},
			Impair: topo.Impairments{
				LossRate: 0.02,
				Jitter:   3 * sim.Millisecond,
			},
		}},
		Flows: []FlowSpec{
			{Scheme: "ABC", RTT: 60 * sim.Millisecond},
			{Scheme: "Cubic", RTT: 140 * sim.Millisecond},
			{Scheme: "Cubic", Dir: Reverse},
		},
	}
}

// TestReverseCongestedDeterminism: a fixed seed must give byte-identical
// results for the reverse-path-congested scenario, run to run.
func TestReverseCongestedDeterminism(t *testing.T) {
	var blobs [][]byte
	for run := 0; run < 2; run++ {
		res, pooled, err := Run(reverseCongestedSpec())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(digest(res, pooled.Mean(), pooled.P95())); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("reverse-congested runs with the same seed are not byte-identical")
	}
}

// TestReverseFlowActuallyCongests: the reverse cross flow must measurably
// degrade the forward direction versus an idle reverse path, and the
// congestion must be visible on the reverse link itself (ACK drops).
func TestReverseFlowActuallyCongests(t *testing.T) {
	spec := reverseCongestedSpec()
	with, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Flows = spec.Flows[:2] // drop the reverse cross flow
	spec.ReverseLinks[0].Impair = topo.Impairments{}
	without, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	fwdWith := with.Flows[0].Bytes + with.Flows[1].Bytes
	fwdWithout := without.Flows[0].Bytes + without.Flows[1].Bytes
	if fwdWith >= fwdWithout {
		t.Errorf("reverse congestion had no aggregate effect: %d bytes with vs %d without",
			fwdWith, fwdWithout)
	}
	if with.Flows[2].Bytes == 0 {
		t.Error("reverse-direction flow delivered nothing")
	}
	ackDrops := func(r *Result) int64 { return r.ReverseQdiscs[0].Counters().DroppedPackets }
	if d := ackDrops(with); d == 0 {
		t.Error("congested reverse link recorded no drops")
	}
	if d := ackDrops(without); d != 0 {
		t.Errorf("idle reverse link recorded %d drops", d)
	}
}

// TestHeteroRTTShortRunMeasures: a run shorter than the default 10 s
// warmup still measures something. At 8 s every ABC flow gets throughput,
// and the split favours short RTTs strictly.
func TestHeteroRTTShortRunMeasures(t *testing.T) {
	r, err := heteroRTTFairness(RunOptions{}, "ABC", 8*sim.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, mbps := range r.TputMbps {
		if !(mbps > 0) || i > 0 && mbps >= r.TputMbps[i-1] {
			t.Fatalf("throughput by RTT %v ms = %v Mbit/s, want positive and strictly descending", r.RTTsMs, r.TputMbps)
		}
	}
}

// TestScenarioFilesCompileAndRun: every example scenario file must parse,
// compile and (briefly) run without unrouted drops.
func TestScenarioFilesCompileAndRun(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, path := range paths {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spec := sc.Spec
		spec.Duration = 3 * sim.Second
		spec.Warmup = sim.Second
		for i := range spec.Flows {
			if spec.Flows[i].Stop > spec.Duration {
				spec.Flows[i].Stop = 0
			}
			if spec.Flows[i].Start >= spec.Duration {
				spec.Flows[i].Start = 0
			}
		}
		res, _, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if res.Drops != 0 {
			t.Errorf("%s: %d unrouted drops", path, res.Drops)
		}
	}
}

// TestDemuxDropSurfaced: packets stranded by a timeline reroute — the
// handover shape, which has no drain — must show up in Result.Drops
// rather than vanish, and the books must still balance. Flow 0 moves
// from eA–f1 to eB–f2 while eA's queue and wire hold its packets: they
// reach m1, find no route, and end unrouted.
func TestDemuxDropSurfaced(t *testing.T) {
	spec := conservationSpec(1, 1200*sim.Millisecond, 3*sim.Second)
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops != 0 {
		t.Fatalf("run without a reroute has %d unrouted drops", res.Drops)
	}
	spec.Events = []EventSpec{{At: 600 * sim.Millisecond, Kind: EventReroute, Flow: 0, Path: []string{"eB", "f2"}}}
	res, _, err = Run(spec)
	if err != nil {
		t.Fatal(err) // the audit included
	}
	if res.Drops == 0 {
		t.Fatal("a reroute without drain stranded no packet")
	}
	if got := res.Ledger.Released[packet.Unrouted]; got != res.Drops {
		t.Fatalf("Result.Drops = %d, the books hold %d unrouted ends", res.Drops, got)
	}
}
