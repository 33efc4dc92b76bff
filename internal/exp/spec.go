// Package exp contains one runner per table/figure of the paper's
// evaluation, built on a generic scenario harness: flows of any
// registered scheme traverse a topology graph (internal/topo) of
// bottleneck links — trace-driven, rate-driven or Wi-Fi modelled — with
// optional impairments, and both the data path and the ACK path are
// explicit routes, so reverse-path bottlenecks and per-flow RTTs are
// first-class. Schemes and queueing disciplines are resolved through the
// cc and qdisc registries; this package constructs nothing by name.
//
// A Spec is plain data: every field is a value — no callback, no run
// state — so one Spec runs any number of times alike, and its struct tags
// are the scenario file's keys (scenario.go decodes a file straight into
// a Spec and encodes one back). It has two notations — a chain
// (Links/ReverseLinks) and a mesh (Nodes/Edges) — and one compiler. Run
// is the pipeline, one file per stage: spec.go declares the types;
// validate.go range-checks a Spec before anything is built; lower.go
// (chain) and mesh.go (mesh) are the front ends, which only validate
// their notation and translate it into a plan of named junctions, named
// edges and resolved per-flow edge routes; mesh.go's back end builds the
// graph from the plan on one simulator; wire.go attaches links,
// endpoints and receivers; harness.go runs the graph's coordinator and
// measures. There is one run path and one judge: a Spec is valid iff it
// builds, so Check is Run stopped before the clock.
//
// The experiments are catalogued once, in drivers.go: Drivers is the
// table the CLIs, the report, the golden corpus and the driver test all
// iterate. A row is the experiment: it names an unexported
// func(Params) (R, error), so the table is the only way into a figure,
// and each row's print function sits next to its result type (shared
// print helpers in print.go). Beside Run and Check, the package exports
// only what the CLIs and the benchmark module call.
package exp

import (
	"fmt"

	"abc/internal/abc"
	"abc/internal/app"
	"abc/internal/cc"
	_ "abc/internal/explicit" // registers the XCP/XCPw/RCP/VCP schemes and routers
	"abc/internal/metrics"
	"abc/internal/packet"
	"abc/internal/qdisc"
	_ "abc/internal/sched" // registers the dual-maxmin and dual-zombie qdiscs
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/trace"
	"abc/internal/wifi"
)

// Schemes lists every congestion-control scheme in the paper's
// evaluation, in the order Fig. 9 reports them.
var Schemes = []string{
	"ABC", "XCP", "XCPw", "Cubic+Codel", "Cubic+PIE",
	"Copa", "Sprout", "Vegas", "Verus", "BBR", "PCC", "Cubic",
}

// explicitSchemes is the Appendix D comparison set.
var explicitSchemes = []string{"ABC", "XCP", "XCPw", "VCP", "RCP"}

// QdiscSpec selects the bottleneck discipline for a link.
type QdiscSpec struct {
	// Kind names a registered discipline (qdisc.Kinds lists them), or
	// "auto" (the default) to derive it from the first flow, then
	// workload, whose data route crosses the edge, else the first whose
	// ACK route does — on a chain link as on a mesh edge.
	Kind string `spec:"kind"`
	// Buffer is the queue limit in packets (default 250, the paper's
	// emulation buffer) of every kind, the ABC family's included; of
	// each child for the dual-* kinds.
	Buffer int `spec:"buffer"`
	// ABCConfig, when non-nil, is the router configuration of an
	// ABC-family kind ("abc", "abc-proxied", "dual-*": dt, η, δ, T, the
	// token limit, the feedback mode, a lie), each zero field taking the
	// paper's default; nil runs the defaults. Any other kind rejects one,
	// and a lie is rejected by every kind but "abc", whose router alone
	// draws from a random stream.
	ABCConfig *abc.RouterConfig `spec:",inline"`
}

// WiFiLinkSpec configures a Kind "wifi" link: the modelled 802.11n AP at
// the testbed's defaults (wifi.DefaultLinkConfig) with this MCS. A "wifi"
// link without one runs the testbed's fixed MCS and no estimator.
type WiFiLinkSpec struct {
	MCS wifi.MCS `spec:",inline"`
	// Estimate attaches the §4.1 link-rate estimator as the capacity
	// provider for capacity-aware qdiscs (the ABC deployment).
	Estimate bool `spec:"estimate"`
}

// LinkSpec describes one bottleneck hop of a chain or mesh edge.
type LinkSpec struct {
	// Kind selects the link model: "trace", "rate", "wifi", or "" to
	// infer from whichever one of Trace/Rate/Wifi is set. Mesh edges
	// (Spec.Edges) additionally accept "wire": a pure propagation hop —
	// Delay and Impair only, no bottleneck and no qdisc.
	Kind string `spec:"kind"`
	// Trace drives a delivery-opportunity (Mahimahi-style) link. A file
	// spells it by its generator (trace.Generator).
	Trace *trace.Trace `spec:",inline"`
	// Rate drives a store-and-forward link at this many bits/sec (> 0);
	// set_rate events change it in steps.
	Rate float64 `spec:"rate_mbps"`
	// Wifi drives an A-MPDU-batching 802.11n link.
	Wifi  *WiFiLinkSpec `spec:",inline"`
	Qdisc QdiscSpec     `spec:"qdisc"`
	// Lookahead enables the PK-ABC future-capacity oracle on trace
	// links (§6.6).
	Lookahead sim.Time `spec:"lookahead_ms"`
	// Delay is this hop's propagation delay, applied after transmission.
	// The default 0 keeps hops back-to-back, with the path's residual
	// propagation in the per-flow access tails (RTT/2 each way), which
	// preserves the paper's RTT accounting.
	Delay sim.Time `spec:"delay_ms"`
	// Impair adds an impairment stage (jitter, random/burst loss) in
	// front of the link.
	Impair topo.Impairments `spec:",inline"`
	// Attack installs an adversarial stage on the edge at build time:
	// targeted drops, extra delay or mark-stripping against the flows its
	// Target selects. Retunable mid-run via "attack"/"clear_attack"
	// events.
	Attack *topo.Attack `spec:"attack"`
}

// wire reports whether the spec is a pure propagation hop (mesh only).
func (ls *LinkSpec) wire() bool { return ls.Kind == "wire" }

// Direction selects which chain carries a flow's data.
type Direction int

const (
	// Forward flows send data over Spec.Links; their ACKs return over
	// Spec.ReverseLinks (or a plain wire when there are none).
	Forward Direction = iota
	// Reverse flows send data over Spec.ReverseLinks; their ACKs return
	// over Spec.Links. They model uplink cross traffic that congests the
	// forward flows' ACK path.
	Reverse
)

// directions spells Direction values as a scenario file does.
var directions = map[string]Direction{"forward": Forward, "reverse": Reverse}

// MarshalText spells the direction as a scenario file does.
func (d Direction) MarshalText() ([]byte, error) {
	if d == Reverse {
		return []byte("reverse"), nil
	}
	return []byte("forward"), nil
}

// UnmarshalText reads "forward" (or "") and "reverse".
func (d *Direction) UnmarshalText(b []byte) error {
	v, ok := directions[string(b)]
	if !ok && len(b) > 0 {
		return fmt.Errorf("unknown dir %q (want forward or reverse)", b)
	}
	*d = v
	return nil
}

// FlowSpec describes one flow.
type FlowSpec struct {
	Scheme string `spec:"scheme"`
	// Start/Stop bound the flow's lifetime; Stop 0 means run to the end,
	// and a Stop at or before Start is an error (it would never send).
	Start sim.Time `spec:"start_s"`
	Stop  sim.Time `spec:"stop_s"`
	// Source is the data source; nil means backlogged.
	Source *SourceSpec `spec:"source"`
	// Dir selects the chain carrying this flow's data (default Forward).
	Dir Direction `spec:"dir"`
	// EnterAt is the index of the first link of the flow's chain it
	// traverses (cross-traffic flows can skip upstream links).
	// Out-of-range values are an error.
	EnterAt int `spec:"enter_at"`
	// ExitAt is the 1-based index of the last link traversed, letting
	// cross traffic leave the path early; 0 means the end of the chain.
	ExitAt int `spec:"exit_at"`
	// RTT overrides Spec.RTT for this flow (heterogeneous-RTT
	// scenarios): RTT/2 of access latency on each of the flow's data and
	// ACK tails.
	RTT sim.Time `spec:"rtt_ms"`
	// Path routes the flow's data over named mesh edges (Spec.Edges), in
	// order. Mesh specs require it; chain specs must leave it empty (they
	// route via Dir/EnterAt/ExitAt instead).
	Path []string `spec:"path"`
	// AckPath routes the flow's ACKs over named mesh edges. Empty means
	// an uncongested direct wire back to the sender (what a chain without
	// ReverseLinks lowers to).
	AckPath []string `spec:"ack_path"`
	// Misbehave wraps the constructed algorithm in a misbehaving-sender
	// shim. The only recognized value is "greedy": a sender that ignores
	// brakes, CE and negative explicit feedback (cc.Greedy). Empty means
	// an honest sender.
	Misbehave string `spec:"misbehave"`
	// App attaches a closed-loop application (ABR video, RPC) that
	// drives this flow's source; mutually exclusive with Source.
	App *AppSpec `spec:"app"`
}

// SourceSpec is a flow's data source as a value; each run builds a fresh
// cc.Source from it. Kinds: "rate" (application-limited at Rate
// bits/sec), "onoff" (sending for On, then silent for Off, from Start)
// and "fixed" (a finite transfer of Bytes). A nil SourceSpec is a
// backlogged flow.
type SourceSpec struct {
	Kind  string   `spec:"kind"`
	Rate  float64  `spec:"mbps"`
	Bytes int      `spec:"bytes"`
	On    sim.Time `spec:"on_s"`
	Off   sim.Time `spec:"off_s"`
	Start sim.Time `spec:"start_s"`
}

// source builds one run's cc.Source (nil = backlogged).
func (s *SourceSpec) source() cc.Source {
	if s == nil {
		return nil
	}
	switch s.Kind {
	case "rate":
		return cc.NewRateLimited(s.Rate)
	case "onoff":
		return &cc.OnOff{Start: s.Start, OnFor: s.On, OffFor: s.Off}
	case "fixed":
		return cc.NewFixed(s.Bytes)
	}
	return nil
}

// EdgeSpec is one directed edge of a mesh topology (Spec.Edges): a named
// hop between two named nodes, carrying a LinkSpec exactly like a chain
// hop does (Kind "wire" makes it a pure propagation edge). Chain link i
// of Links is shorthand for EdgeSpec{"fwd<i>", "fwd<i>", "fwd<i+1>"},
// link i of ReverseLinks for the same over "rev".
type EdgeSpec struct {
	// Name identifies the edge in FlowSpec.Path / AckPath.
	Name string `spec:"name"`
	// From and To name the edge's endpoints (Spec.Nodes).
	From string `spec:"from"`
	To   string `spec:"to"`
	// Link configures the hop: bottleneck model, qdisc, delay,
	// impairments.
	Link LinkSpec `spec:",inline"`
}

// Spec is a complete scenario in one of two mutually exclusive
// notations: a chain (Links / ReverseLinks, flows routed by
// Dir/EnterAt/ExitAt) or a mesh (Nodes / Edges, flows routed by explicit
// Path/AckPath edge lists). The chain is shorthand: Run lowers it to the
// mesh with junctions and edges "fwd<i>" / "rev<i>" and compiles both
// through one pipeline, so every clause that addresses an edge or a
// junction by name works the same way on either.
type Spec struct {
	Seed     int64    `spec:"seed"`
	Duration sim.Time `spec:"duration_s"`
	// Warmup excludes the initial transient from all metrics.
	Warmup sim.Time `spec:"warmup_s"`
	// RTT is the round-trip propagation delay (paper default 100 ms).
	RTT   sim.Time   `spec:"rtt_ms"`
	Links []LinkSpec `spec:"links"`
	// ReverseLinks is the ACK-path chain: forward flows' ACKs traverse
	// it in order, and Reverse-direction flows send their data over it.
	// Empty means an uncongested wire, the paper's emulation default.
	ReverseLinks []LinkSpec `spec:"reverse_links"`
	// Nodes and Edges declare a mesh topology: named junctions and
	// directed edges between them. Any directed multigraph is allowed —
	// parallel edges, asymmetric reverse paths, disjoint subpaths through
	// shared junctions. Flows route over it via FlowSpec.Path / AckPath.
	Nodes []string   `spec:"nodes"`
	Edges []EdgeSpec `spec:"edges"`
	Flows []FlowSpec `spec:"flows"`
	// Workloads spawn finite flows mid-run from open-loop arrival
	// processes, reported per-workload in Result.Workloads.
	Workloads []WorkloadSpec `spec:"workloads"`
	// Events is the timed mutation timeline: reroutes, rate changes, link
	// outages and attacks, executed on the simulation clock. Edges are
	// addressed by name — mesh edges by their EdgeSpec.Name, chain links
	// as "fwd<i>" / "rev<i>" (link i of Links / ReverseLinks).
	Events []EventSpec `spec:"events"`
	// Shards has no effect: every run is one simulator. It has no key in
	// the scenario file. Kept for bench/; deleted with mesh_shard2.
	Shards int
	// Sample enables time-series collection at this period (0 = off):
	// at Sample, 2*Sample, … up to Duration the harness reads every
	// series at a coordinator barrier — after the events strictly before
	// that instant and the Events entries at it, before its simulator
	// events. A read, not an event: the run executes the same events
	// with or without it. Negative values are a Spec error, not "off".
	Sample sim.Time `spec:"sample_ms"`
	// Routing enables the route-computation layer: a policy watches link
	// state (link_down / link_up) and recomputes every flow's routes
	// through the same Router machinery scripted reroute events use,
	// making handover and flap recovery emergent behavior.
	Routing *RoutingSpec `spec:"routing"`
	// Background attaches fluid background aggregates to named edges
	// (mesh edge names, or chain links "fwd<i>" / "rev<i>"): each is a
	// deterministic fixed-step rate process standing in for many
	// virtual flows, draining link capacity and contributing queue
	// occupancy at constant cost regardless of the flow count.
	Background []BackgroundSpec `spec:"background"`
}

// FlowResult reports one flow's measurements over [Warmup, Duration].
type FlowResult struct {
	Scheme   string
	Bytes    int64
	TputMbps float64
	Delay    metrics.DelayRecorder // one-way per-packet delay, ms
	QDelay   metrics.DelayRecorder // accumulated queuing delay, ms
	Lost     int64
	Retx     int64
	Tput     *metrics.Timeseries // when sampling
	// WABC and WCubic sample the sender's two windows (packets) when
	// sampling a scheme that keeps both (abc.Sender).
	WABC, WCubic *metrics.Timeseries
	Endpoint     *cc.Endpoint
	Algorithm    cc.Algorithm
	// App is the closed-loop application bound to the flow, when any
	// (AppSpec kind "abr" → *app.ABR, "rpc" → *app.RPC).
	App app.App
}

// Result is a completed scenario.
type Result struct {
	Spec  Spec
	Flows []FlowResult
	// Workloads reports each open-loop workload in Spec.Workloads order.
	Workloads   []WorkloadResult
	Utilization float64
	// QueueDelayTS samples the first link's standing queue delay when
	// sampling is enabled.
	QueueDelayTS *metrics.Timeseries
	// Qdiscs exposes the built bottleneck disciplines, first hop first.
	Qdiscs []qdisc.Qdisc
	// ReverseQdiscs exposes the reverse-chain disciplines, first reverse
	// hop first.
	ReverseQdiscs []qdisc.Qdisc
	// EdgeQdiscs maps mesh edge names to their built disciplines (nil for
	// chain scenarios; wire edges have no entry).
	EdgeQdiscs map[string]qdisc.Qdisc
	// Ledger is the run's packet books: every packet of every flow
	// attached, and every one that ended, by cause — one packet.Tally per
	// flow, summed after the run. It balances: Run fails unless the audit
	// (audit.go) finds it agreeing with what the endpoints, receivers,
	// disciplines and links counted on their own. Read a drop count as
	// Ledger.Released[packet.Impair] and so on.
	Ledger packet.Books
	// Drops is Ledger.Released[packet.Unrouted]: packets that reached a
	// junction with no forwarding entry for their flow and direction. In
	// a static scenario anything non-zero indicates a wiring bug (a flow
	// id without a routed path); under a reroute event timeline it
	// additionally counts packets that were in flight on abandoned edges
	// when their route moved — the handover losses the conservation
	// contract makes explicit.
	Drops int64
	// AdvDelayed / AdvStripped count adversarial-stage actions that end
	// no packet, across all edges: packets delayed and accel marks
	// stripped by installed attacks (their drops are
	// Ledger.Released[packet.Adversary]).
	AdvDelayed  int64
	AdvStripped int64
	// Adversary splits the run's degradation metrics into victim,
	// bystander and attacker classes; nil when the spec has no adversary
	// (no attacks, no misbehaving flows, no lying routers).
	Adversary *AdversaryReport
	// Events annotates each executed Spec.Events entry in execution
	// order.
	Events []EventResult
	// RouteChanges annotates every route the Spec.Routing policy
	// switched, in execution order — the emergent counterpart of the
	// scripted Events annotations, and what golden digests lock for the
	// autoroute/flapstorm drivers.
	RouteChanges []RouteChangeResult
	// Graph is the compiled topology, available to post-run inspection
	// (edge stats, routes, event counts).
	Graph *topo.Graph
	// Backgrounds reports each fluid aggregate in Spec.Background order:
	// bytes offered/served/dropped and the mean service share it took
	// from its edge.
	Backgrounds []BackgroundResult
}

// AggTputMbps sums flow throughputs.
func (r *Result) AggTputMbps() float64 {
	var t float64
	for i := range r.Flows {
		t += r.Flows[i].TputMbps
	}
	return t
}

// Summary condenses a result for scatter/bar figures.
func (r *Result) Summary(scheme string, pooled *metrics.DelayRecorder) metrics.Summary {
	return metrics.Summary{
		Scheme:      scheme,
		Utilization: r.Utilization,
		TputMbps:    r.AggTputMbps(),
		MeanMs:      pooled.Mean(),
		P95Ms:       pooled.P95(),
	}
}
