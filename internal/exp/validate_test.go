package exp

import (
	"strings"
	"testing"
	"time"

	"abc/internal/abc"
	"abc/internal/app"
	"abc/internal/netem"
	"abc/internal/sim"
	"abc/internal/wifi"
)

// within returns f's error, failing the test if f has not returned after
// d: a spec that is rejected must be rejected before it can hang.
func within(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
		return nil
	}
}

// TestSpecValidateRanges: one row per field Spec.validate range-checks.
// Each value was accepted before — ignored, clamped, taken as "default",
// run as something else, or a scheduler panic — and is now a Run error
// naming the field; the zero Spec of the same shape still runs.
func TestSpecValidateRanges(t *testing.T) {
	base := func() Spec {
		return Spec{
			Seed: 1, Duration: 20 * sim.Millisecond, Warmup: sim.Millisecond,
			Links:        []LinkSpec{{Rate: netem.ConstRate(8e6)}},
			ReverseLinks: []LinkSpec{{Rate: netem.ConstRate(8e6)}},
			Flows:        []FlowSpec{{Scheme: "Cubic"}},
			Workloads: []WorkloadSpec{{Scheme: "Cubic",
				Arrival: app.Poisson{PerSec: 10}, Sizes: app.FixedSize{Bytes: 3000}}},
		}
	}
	if _, _, err := Run(base()); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
	mesh := base()
	mesh.Links, mesh.ReverseLinks, mesh.Workloads = nil, nil, nil
	mesh.Nodes = []string{"a", "b"}
	mesh.Edges = []EdgeSpec{{Name: "e", From: "a", To: "b", Link: LinkSpec{Kind: "wire", Delay: -sim.Millisecond}}}
	mesh.Flows[0].Path = []string{"e"}
	wantRunError(t, mesh, "edge 0: negative Delay")

	rows := []struct {
		want string
		set  func(*Spec)
	}{
		{"negative Duration", func(s *Spec) { s.Duration = -sim.Second }},
		{"negative Warmup", func(s *Spec) { s.Warmup = -sim.Second }},
		{"negative RTT", func(s *Spec) { s.RTT = -sim.Millisecond }},
		{"link 0: negative Delay", func(s *Spec) { s.Links[0].Delay = -5 * sim.Millisecond }},
		{"reverse link 0: negative Delay", func(s *Spec) { s.ReverseLinks[0].Delay = -1 }},
		{"negative Lookahead", func(s *Spec) { s.Links[0].Lookahead = -1 }},
		{"negative Impair.Jitter", func(s *Spec) { s.Links[0].Impair.Jitter = -1 }},
		{"negative Qdisc.ABCConfig.DelayThreshold", func(s *Spec) { s.Links[0].Qdisc.ABCConfig = &abc.RouterConfig{DelayThreshold: -1} }},
		{"negative Qdisc.Buffer", func(s *Spec) { s.Links[0].Qdisc.Buffer = -4 }},
		{"Impair.LossRate 7 is not a probability", func(s *Spec) { s.Links[0].Impair.LossRate = 7 }},
		{"Impair.LossRate -1 is not a probability", func(s *Spec) { s.Links[0].Impair.LossRate = -1 }},
		{"Impair.BurstLossRate", func(s *Spec) { s.Links[0].Impair.BurstLossRate = 1.5 }},
		{"Impair.BurstPBad", func(s *Spec) { s.Links[0].Impair.BurstPBad = -0.1 }},
		{"Impair.BurstPGood", func(s *Spec) { s.Links[0].Impair.BurstPGood = 2 }},
		// The three Starts below were "sim: scheduling event before now".
		{"flow 0: negative Start", func(s *Spec) { s.Flows[0].Start = -sim.Second }},
		{"flow 0: negative Stop", func(s *Spec) { s.Flows[0].Stop = -sim.Second }},
		{"flow 0: negative RTT", func(s *Spec) { s.Flows[0].RTT = -sim.Millisecond }},
		{"flow 0: Stop 5.000ms is not after Start", func(s *Spec) { s.Flows[0].Start, s.Flows[0].Stop = 9*sim.Millisecond, 5*sim.Millisecond }},
		{"workload 0: negative Start", func(s *Spec) { s.Workloads[0].Start = -sim.Second }},
		{"workload 0: negative Stop", func(s *Spec) { s.Workloads[0].Stop = -1 }},
		{"workload 0: negative RTT", func(s *Spec) { s.Workloads[0].RTT = -1 }},
		{"workload 0: Stop", func(s *Spec) { s.Workloads[0].Start, s.Workloads[0].Stop = 5, 5 }},
		{"workload 0: negative MaxActive", func(s *Spec) { s.Workloads[0].MaxActive = -1 }},
		// Slowdown reporting was silently off.
		{"workload 0: negative RefMbps", func(s *Spec) { s.Workloads[0].RefMbps = -9 }},
		// These ran as a 10 ms step and as a flow count echoed back in
		// BackgroundResult.
		{"background 0: negative Step", func(s *Spec) {
			s.Background = []BackgroundSpec{{Edge: "fwd0", Kind: "const", RateMbps: 1, Step: -sim.Millisecond}}
		}},
		{"background 0: negative Flows", func(s *Spec) {
			s.Background = []BackgroundSpec{{Edge: "fwd0", Kind: "const", RateMbps: 1, Flows: -5}}
		}},
		// 1e12 arrivals a second ran 1 ns gaps: a hang, not an experiment.
		{"Poisson.PerSec 1e+12", func(s *Spec) { s.Duration, s.Workloads[0].Arrival = sim.Second, app.Poisson{PerSec: 1e12} }},
		{"Poisson.PerSec 0", func(s *Spec) { s.Workloads[0].Arrival = app.Poisson{} }},
		{"Deterministic.Gap", func(s *Spec) { s.Duration, s.Workloads[0].Arrival = sim.Second, app.Deterministic{Gap: 1} }},
		// The rules below were the scenario compiler's alone: a Go caller
		// ran each of these as something else, or not at all.
		{"Rate 0 is not a positive bit rate", func(s *Spec) { s.Links[0] = LinkSpec{Kind: "rate"} }},
		{"Rate -8e+06 is not a positive bit rate", func(s *Spec) { s.Links[0].Rate = -8e6 }},
		{"reverse link 0: a link carries the one model", func(s *Spec) { s.ReverseLinks[0].Wifi = &WiFiLinkSpec{} }},
		{"link 0: a link carries the one model", func(s *Spec) { s.Links[0].Kind = "trace" }},
		{"unknown MCS walk", func(s *Spec) { s.Links[0] = LinkSpec{Wifi: &WiFiLinkSpec{MCS: wifi.MCS{Walk: "drunk"}}} }},
		{"flow 0: unknown source kind", func(s *Spec) { s.Flows[0].Source = &SourceSpec{Kind: "warp"} }},
		{"a rate source needs Rate > 0", func(s *Spec) { s.Flows[0].Source = &SourceSpec{Kind: "rate"} }},
		{"an onoff source needs On > 0", func(s *Spec) { s.Flows[0].Source = &SourceSpec{Kind: "onoff", Off: sim.Second} }},
		{"a fixed source needs Bytes > 0", func(s *Spec) { s.Flows[0].Source = &SourceSpec{Kind: "fixed"} }},
		{"App and Source are mutually exclusive", func(s *Spec) {
			s.Flows[0].Source, s.Flows[0].App = &SourceSpec{Kind: "fixed", Bytes: 1}, &AppSpec{Kind: "rpc"}
		}},
		{"app: unknown app kind", func(s *Spec) { s.Flows[0].App = &AppSpec{Kind: "quic"} }},
		{"app: negative parameters", func(s *Spec) { s.Flows[0].App = &AppSpec{Kind: "rpc", RPC: app.RPCConfig{ThinkMean: -1}} }},
		{"app: ThinkMean/RespBytes are rpc fields", func(s *Spec) { s.Flows[0].App = &AppSpec{Kind: "abr", RPC: app.RPCConfig{RespBytes: 1}} }},
		{"app: the ABR fields are abr fields", func(s *Spec) { s.Flows[0].App = &AppSpec{Kind: "rpc", ABR: app.ABRConfig{ChunkS: 2}} }},
		{"app: LadderKbps must be positive and strictly ascending", func(s *Spec) {
			s.Flows[0].App = &AppSpec{Kind: "abr", ABR: app.ABRConfig{LadderKbps: []float64{300, 300}}}
		}},
		{"workload 0: missing Arrival process", func(s *Spec) { s.Workloads[0].Arrival = nil }},
		{"workload 0: missing Sizes distribution", func(s *Spec) { s.Workloads[0].Sizes = nil }},
		{"replay arrival needs a File", func(s *Spec) { s.Workloads[0].Arrival, s.Workloads[0].Sizes = app.Replay{}, nil }},
		{"Sizes conflicts with a replay arrival", func(s *Spec) { s.Workloads[0].Arrival = app.Replay{File: "x.csv"} }},
		{"FixedSize needs Bytes > 0", func(s *Spec) { s.Workloads[0].Sizes = app.FixedSize{} }},
		{"BoundedPareto needs 0 < Min <= Max", func(s *Spec) { s.Workloads[0].Sizes = app.BoundedPareto{Min: 10, Max: 5} }},
		{"BoundedPareto needs 0 < Min <= Max and Alpha >= 0", func(s *Spec) { s.Workloads[0].Sizes = app.BoundedPareto{Min: 1, Max: 5, Alpha: -1} }},
	}
	for _, row := range rows {
		spec := base()
		row.set(&spec)
		err := within(t, 5*time.Second, func() error { _, _, err := Run(spec); return err })
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("Run error = %v, want message containing %q", err, row.want)
		}
	}
}
