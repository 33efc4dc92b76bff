// Declarative scenario files: a JSON description of links, reverse
// links and flows that compiles to a Spec, so new topologies are a data
// file rather than a new driver. Schemes and qdisc kinds are resolved
// through the registries, which means a scenario file can name anything
// a package has registered without this package knowing about it.
//
// One rule decides whether a file is valid: Compile translates it,
// Spec.validate range-checks it and the run pipeline builds it (Check);
// it is valid iff it builds. This file therefore rejects only what a
// Spec cannot express — unknown enum strings, conflicting shorthands,
// fields a clause would drop, missing traces and replay logs, numbers
// that do not fit the clock — and every other error below (unknown
// schemes, kinds and edges, out-of-range values, unroutable paths,
// clauses that cannot be combined) is the pipeline's own, raised at
// compile time with the text Run would give.
//
// The format (all durations in the units their field names say):
//
//	{
//	  "name": "congested-uplink",
//	  "seed": 1,
//	  "duration_s": 30,
//	  "warmup_s": 4,
//	  "rtt_ms": 100,
//	  "sample_ms": 0,
//	  "links": [
//	    {"kind": "trace", "trace": "Verizon1",
//	     "qdisc": {"kind": "auto", "buffer": 250}}
//	  ],
//	  "reverse_links": [
//	    {"kind": "rate", "rate_mbps": 2, "delay_ms": 5,
//	     "loss": 0.01, "qdisc": {"kind": "droptail", "buffer": 100}}
//	  ],
//	  "flows": [
//	    {"scheme": "ABC"},
//	    {"scheme": "Cubic", "dir": "reverse", "start_s": 5}
//	  ]
//	}
//
// Link kinds: "trace" (named cellular corpus trace, or "steps" with
// steps_mbps/step_ms, or "square" with low/high/half-period), "rate"
// (constant rate_mbps) and "wifi" (fixed "mcs", optional "estimate" for
// the §4.1 estimator). Every link takes optional delay_ms, jitter_ms,
// loss, burst_loss/burst_p_bad/burst_p_good, reorder_prob/
// reorder_delay_ms and a qdisc clause naming any registered kind; its
// dt_ms and lie build the router configuration of an ABC-family kind
// and are errors on any other.
// Flows take scheme, start_s/stop_s, dir ("forward"/"reverse"),
// enter_at/exit_at, rtt_ms and either rate_mbps (shorthand for an
// application-limited rate source) or an explicit source clause —
// {"kind": "backlogged"|"rate"|"onoff"|"fixed", ...} — or an app clause
// binding a closed-loop application to the flow:
//
//	{"scheme": "ABC", "app": {"kind": "abr", "ladder_kbps": [300, 1200]}}
//	{"scheme": "ABC", "app": {"kind": "rpc", "resp_kb": 100, "think_ms": 200}}
//
// A scenario may also declare open-loop workloads that spawn finite
// flows mid-run, each reported with FCT statistics:
//
//	"workloads": [
//	  {"scheme": "Cubic", "class": "web", "arrival": "poisson",
//	   "per_s": 4, "size": {"kind": "pareto", "min_kb": 10,
//	   "max_kb": 1024, "alpha": 1.2}, "ref_mbps": 9}
//	]
//
// Workloads route exactly like flows (dir/enter_at/exit_at on chains,
// path/ack_path on meshes) and accept start_s/stop_s bounds, a
// max_active cap and a ref_mbps slowdown baseline. Size kinds: "fixed"
// (kb), "pareto" (min_kb/max_kb/alpha) and "choice" (sizes_kb +
// optional weights).
//
// Instead of the links/reverse_links chains, a scenario may declare a
// mesh: "nodes" names the junctions and "edges" the directed hops
// between them, each edge being a link clause plus name/from/to (the
// extra kind "wire" makes a pure propagation edge: delay_ms and
// impairments only, no bottleneck, no qdisc). Mesh flows route by edge
// name — "path" for data, "ack_path" for ACKs (empty means an
// uncongested direct wire back) — instead of dir/enter_at/exit_at. An
// ack_path must start at the node where the flow's data path ends (the
// receiver stamps the echoes), but may end anywhere: it models the
// congested segment of the return journey, and the rest is the same
// implicit lossless wire an empty ack_path uses end to end:
//
//	{
//	  "name": "marked-uplink",
//	  "nodes": ["gw", "ue", "sink"],
//	  "edges": [
//	    {"name": "down", "from": "gw", "to": "ue",
//	     "kind": "rate", "rate_mbps": 24, "qdisc": {"kind": "auto"}},
//	    {"name": "up", "from": "ue", "to": "gw",
//	     "kind": "rate", "rate_mbps": 2, "qdisc": {"kind": "abc"}},
//	    {"name": "drain", "from": "gw", "to": "sink", "kind": "wire"}
//	  ],
//	  "flows": [
//	    {"scheme": "ABC", "path": ["down"], "ack_path": ["up"]},
//	    {"scheme": "ABC", "path": ["up"], "ack_path": ["drain"], "rate_mbps": 1.2}
//	  ]
//	}
//
// An ACK path's edges may host an ABC router or marking qdisc; the
// accel/brake echo the receiver stamps onto ACKs is then subject to
// demotion on the way back, and the sender paces to the minimum of
// marks over the full round trip.
//
// A scenario may also declare a timed event timeline mutating the
// topology mid-run — route changes, link rate/delay changes, outages:
//
//	"events": [
//	  {"at_s": 10, "kind": "reroute", "flow": 0, "path": ["cell2", "air2"]},
//	  {"at_s": 10, "kind": "reroute", "flow": 0, "ack": true, "path": ["up2"]},
//	  {"at_s": 12, "kind": "set_rate", "edge": "up", "rate_mbps": 1},
//	  {"at_s": 14, "kind": "set_delay", "edge": "air2", "delay_ms": 20},
//	  {"at_s": 16, "kind": "link_down", "edge": "cell1"},
//	  {"at_s": 17, "kind": "link_up", "edge": "cell1"}
//	]
//
// Mesh edges are addressed by their declared names; chain links by the
// canonical names "fwd<i>" / "rev<i>" (link i of links / reverse_links)
// — a chain is shorthand for the mesh with those junctions and edges,
// and both notations compile through one pipeline.
// A reroute's path must start at the junction the flow's existing route
// starts at; set_rate targets rate links, and set_delay needs an edge
// built with a positive delay_ms. Packets in flight on edges a reroute
// abandons drain to the next junction and are counted as drops there
// (the conservation contract — no duplication, no silent loss).
//
// Instead of (or alongside) scripted reroutes, a "routing" clause puts
// flows under policy-driven route computation: the policy watches link
// state (link_down / link_up / set_delay) and recomputes routes itself,
// making handover and flap recovery emergent:
//
//	"routing": {"policy": "shortest", "recompute_ms": 10}
//	"routing": {"policy": "kfailover", "k": 2, "drain_ms": 20,
//	            "flows": [0]}
//
// Policies: "shortest" (delay-weighted shortest path over the up edges,
// the default) and "kfailover" (k edge-disjoint backups precomputed per
// route, first fully-up candidate wins; "k" defaults to 2 and is only
// meaningful here — setting it with "shortest" is an error).
// recompute_ms models control-plane convergence (default 10); a
// positive drain_ms makes changes make-before-break (the old path keeps
// draining for that window); "flows" restricts management to the listed
// flow indices (default: all flows — each flow's data route plus its
// ACK route when the latter is table-backed). Routing is one-shard only.
//
// Adversaries come in three declarable forms. A targeted attack is an
// "attack" clause on any link or edge (wire edges included), or an
// "attack" / "clear_attack" event installing, retuning or removing one
// mid-run; a misbehaving sender is "misbehave": "greedy" on a flow; a
// lying ABC router is "lie" on an abc qdisc clause:
//
//	{"kind": "rate", "rate_mbps": 16,
//	 "attack": {"flows": [0], "drop_rate": 0.01, "strip_marks": true,
//	            "extra_delay_ms": 30, "dir": "data", "from_s": 10}}
//	{"scheme": "ABC", "misbehave": "greedy"}
//	"qdisc": {"kind": "abc", "lie": 0.3}
//	{"at_s": 20, "kind": "attack", "edge": "fwd0",
//	 "attack": {"fraction": 0.5, "drop_rate": 0.05}}
//	{"at_s": 30, "kind": "clear_attack", "edge": "fwd0"}
//
// Any of the three makes the run's Result carry an Adversary report:
// victim/bystander/attacker throughput, p95 delay, FCT, QoE and Jain
// fairness splits.
//
// A "background" clause attaches fluid background aggregates to named
// edges (mesh edge names, or chain links "fwd<i>" / "rev<i>"): each is
// a deterministic fixed-step rate process standing in for many virtual
// flows — it drains link capacity and contributes queue occupancy at
// constant cost regardless of the flow count, while the scenario's
// packet-level flows see the residual service rate and the
// fluid-inflated queuing delay. Kinds: "const" (fixed aggregate
// rate_mbps, optional ramp_s), "aimd" (a TCP-like ensemble of "flows"
// virtual AIMD flows driven by the Eq.-13 machinery; rtt_ms sets the
// ensemble RTT), and "onoff" (rate_mbps gated by an on_s/off_s diurnal
// square schedule). start_s/stop_s bound activity, step_ms overrides
// the 10 ms coupling step. Trace and rate links only:
//
//	"background": [
//	  {"edge": "fwd0", "kind": "onoff", "flows": 1000000,
//	   "rate_mbps": 48, "on_s": 6, "off_s": 4, "ramp_s": 2}
//	]
//
// A top-level "shards" count splits the simulation into that many
// parallel event queues synchronized by conservative lookahead (runs
// are deterministic for a fixed seed and shard count; "sample_ms"
// series are legal at any count, "workloads" and "routing" only at
// one), and "shard_map" pins named junctions to shard indices,
// overriding the automatic partitioner:
//
//	"shards": 2,
//	"shard_map": {"gw": 0, "sink": 1}
package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"abc/internal/abc"
	"abc/internal/app"
	"abc/internal/cc"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/trace"
	"abc/internal/wifi"
)

// ScenarioQdisc is the JSON qdisc clause.
type ScenarioQdisc struct {
	Kind   string  `json:"kind"`
	Buffer int     `json:"buffer"`
	DTms   float64 `json:"dt_ms"`
	// Lie makes an ABC router misbehave: the fraction of brake-bound
	// packets it fraudulently promotes back to accelerate.
	Lie float64 `json:"lie,omitempty"`
}

// routerConfig compiles the clause's dt_ms and lie into the router
// configuration they name: nil when neither is set, else the paper's
// defaults with them applied and the queue limit left to the kind.
func (q ScenarioQdisc) routerConfig(ck *clock) *abc.RouterConfig {
	if q.DTms == 0 && q.Lie == 0 {
		return nil
	}
	cfg := abc.DefaultRouterConfig()
	cfg.Limit = 0
	if dt := ck.ms(q.DTms); dt != 0 {
		cfg.DelayThreshold = dt
	}
	cfg.LieFraction = q.Lie
	return &cfg
}

// ScenarioAttack is the JSON attack clause: a targeted adversarial stage
// on an edge. Target selection: "flows" lists victim flow indices
// explicitly, "fraction" selects a seeded pseudo-random fraction of all
// flow ids (stable per flow, covering workload-spawned flows too); "dir"
// restricts matching to "data" or "ack" packets ("both"/"" matches
// everything); from_s/to_s bound the active window (to_s 0 = forever).
// Actions: drop_rate, strip_marks (accel→brake demotion of ABC marks),
// extra_delay_ms.
type ScenarioAttack struct {
	Flows        []int   `json:"flows,omitempty"`
	Fraction     float64 `json:"fraction,omitempty"`
	Dir          string  `json:"dir,omitempty"`
	FromS        float64 `json:"from_s,omitempty"`
	ToS          float64 `json:"to_s,omitempty"`
	DropRate     float64 `json:"drop_rate,omitempty"`
	StripMarks   bool    `json:"strip_marks,omitempty"`
	ExtraDelayMs float64 `json:"extra_delay_ms,omitempty"`
}

// attackDirs spells the attack clause's dir enum.
var attackDirs = map[string]topo.TargetDir{
	"": topo.TargetBoth, "both": topo.TargetBoth, "data": topo.TargetData, "ack": topo.TargetAck,
}

// compile builds the topo.Attack. where locates the clause in errors.
func (sa *ScenarioAttack) compile(ck *clock, where string) (*topo.Attack, error) {
	dir, ok := attackDirs[sa.Dir]
	if !ok {
		return nil, fmt.Errorf("%s: unknown dir %q (want both, data or ack)", where, sa.Dir)
	}
	return &topo.Attack{
		Target: topo.Target{
			Flows:    sa.Flows,
			Fraction: sa.Fraction,
			Dir:      dir,
			From:     ck.s(sa.FromS),
			To:       ck.s(sa.ToS),
		},
		DropRate:   sa.DropRate,
		StripMarks: sa.StripMarks,
		ExtraDelay: ck.ms(sa.ExtraDelayMs),
	}, nil
}

// ScenarioLink is the JSON link clause.
type ScenarioLink struct {
	Kind string `json:"kind"`
	// Trace selects a named cellular trace; Steps/Square build synthetic
	// ones.
	Trace        string    `json:"trace"`
	StepsMbps    []float64 `json:"steps_mbps"`
	StepMs       float64   `json:"step_ms"`
	SquareLoMbps float64   `json:"square_low_mbps"`
	SquareHiMbps float64   `json:"square_high_mbps"`
	SquareHalfMs float64   `json:"square_half_ms"`
	RateMbps     float64   `json:"rate_mbps"`
	// MCS fixes a wifi link's MCS index; nil keeps the wifi default
	// (a pointer so an explicit "mcs": 0 is distinguishable from the
	// key being absent).
	MCS         *int    `json:"mcs"`
	Estimate    bool    `json:"estimate"`
	LookaheadMs float64 `json:"lookahead_ms"`

	DelayMs        float64 `json:"delay_ms"`
	JitterMs       float64 `json:"jitter_ms"`
	Loss           float64 `json:"loss"`
	BurstLoss      float64 `json:"burst_loss"`
	BurstPBad      float64 `json:"burst_p_bad"`
	BurstPGood     float64 `json:"burst_p_good"`
	ReorderProb    float64 `json:"reorder_prob"`
	ReorderDelayMs float64 `json:"reorder_delay_ms"`

	Qdisc ScenarioQdisc `json:"qdisc"`
	// Attack installs a targeted adversarial stage on the edge at build
	// time (wire edges may carry one too — the stage precedes the link).
	Attack *ScenarioAttack `json:"attack,omitempty"`
}

// ScenarioFlow is the JSON flow clause.
type ScenarioFlow struct {
	Scheme   string  `json:"scheme"`
	StartS   float64 `json:"start_s"`
	StopS    float64 `json:"stop_s"`
	Dir      string  `json:"dir"`
	EnterAt  int     `json:"enter_at"`
	ExitAt   int     `json:"exit_at"`
	RTTms    float64 `json:"rtt_ms"`
	RateMbps float64 `json:"rate_mbps"`
	// Misbehave wraps the flow's sender in a misbehaving shim ("greedy").
	Misbehave string `json:"misbehave,omitempty"`
	// Source selects a registered data source explicitly; the legacy
	// rate_mbps shorthand is equivalent to {"kind":"rate","mbps":...}.
	Source *ScenarioSource `json:"source,omitempty"`
	// App binds a closed-loop application ("abr" or "rpc") to the flow.
	App *ScenarioApp `json:"app,omitempty"`
	// Path and AckPath route a mesh scenario's flow over named edges.
	Path    []string `json:"path,omitempty"`
	AckPath []string `json:"ack_path,omitempty"`
}

// ScenarioSource is the JSON source clause: which data source feeds a
// flow. Kinds: "backlogged" (the default when the clause is absent),
// "rate" (token-bucket application-limited, mbps), "onoff" (alternating
// on_s/off_s from start_s) and "fixed" (a finite transfer of bytes).
type ScenarioSource struct {
	Kind   string  `json:"kind"`
	Mbps   float64 `json:"mbps"`
	Bytes  int     `json:"bytes"`
	OnS    float64 `json:"on_s"`
	OffS   float64 `json:"off_s"`
	StartS float64 `json:"start_s"`
}

// sourceKinds names the accepted source kinds for error messages.
const sourceKinds = "backlogged, rate, onoff, fixed"

// compile builds the cc.Source. where locates the clause in errors.
func (ss *ScenarioSource) compile(ck *clock, where string) (cc.Source, error) {
	switch ss.Kind {
	case "backlogged":
		if ss.Mbps != 0 || ss.Bytes != 0 || ss.OnS != 0 || ss.OffS != 0 || ss.StartS != 0 {
			return nil, fmt.Errorf("%s: backlogged source takes no parameters", where)
		}
		return nil, nil // nil Source means backlogged
	case "rate":
		if ss.Mbps <= 0 {
			return nil, fmt.Errorf("%s: rate source needs mbps > 0", where)
		}
		return cc.NewRateLimited(ss.Mbps * 1e6), nil
	case "onoff":
		if ss.OnS <= 0 || ss.OffS < 0 {
			return nil, fmt.Errorf("%s: onoff source needs on_s > 0 and off_s >= 0", where)
		}
		return &cc.OnOff{
			Start:  ck.s(ss.StartS),
			OnFor:  ck.s(ss.OnS),
			OffFor: ck.s(ss.OffS),
		}, nil
	case "fixed":
		if ss.Bytes <= 0 {
			return nil, fmt.Errorf("%s: fixed source needs bytes > 0", where)
		}
		return cc.NewFixed(ss.Bytes), nil
	}
	return nil, fmt.Errorf("%s: unknown source kind %q (want %s)", where, ss.Kind, sourceKinds)
}

// ScenarioApp is the JSON app clause binding a closed-loop application
// to a flow.
type ScenarioApp struct {
	Kind string `json:"kind"` // "abr" | "rpc"
	// ABR fields. Policy selects the adaptation policy: "buffer" (BBA,
	// the default) or "rate" (harmonic-mean throughput prediction over
	// the last history_chunks downloads, scaled by safety).
	LadderKbps    []float64 `json:"ladder_kbps,omitempty"`
	ChunkS        float64   `json:"chunk_s,omitempty"`
	MaxBufS       float64   `json:"max_buf_s,omitempty"`
	Policy        string    `json:"policy,omitempty"`
	HistoryChunks int       `json:"history_chunks,omitempty"`
	Safety        float64   `json:"safety,omitempty"`
	// RPC fields.
	ThinkMs float64 `json:"think_ms,omitempty"`
	RespKB  float64 `json:"resp_kb,omitempty"`
}

// compile builds the AppSpec. where locates the clause in errors.
func (sa *ScenarioApp) compile(where string) (*AppSpec, error) {
	// Zero means "take the default" for every numeric field; a negative
	// value is a typo that must not silently become the default.
	if sa.ChunkS < 0 || sa.MaxBufS < 0 || sa.ThinkMs < 0 || sa.RespKB < 0 ||
		sa.HistoryChunks < 0 || sa.Safety < 0 {
		return nil, fmt.Errorf("%s: negative app parameters (omit a field for its default)", where)
	}
	switch sa.Kind {
	case "abr":
		if sa.ThinkMs != 0 || sa.RespKB != 0 {
			return nil, fmt.Errorf("%s: think_ms/resp_kb are rpc fields", where)
		}
		if sa.Policy != "rate" && (sa.HistoryChunks != 0 || sa.Safety != 0) {
			return nil, fmt.Errorf("%s: history_chunks/safety are rate-policy fields", where)
		}
		for i, kbps := range sa.LadderKbps {
			if kbps <= 0 {
				return nil, fmt.Errorf("%s: ladder_kbps[%d] must be > 0", where, i)
			}
			if i > 0 && kbps <= sa.LadderKbps[i-1] {
				return nil, fmt.Errorf("%s: ladder_kbps must be strictly ascending", where)
			}
		}
		return &AppSpec{Kind: "abr", ABR: app.ABRConfig{
			LadderKbps:    sa.LadderKbps,
			ChunkS:        sa.ChunkS,
			MaxBufS:       sa.MaxBufS,
			Policy:        sa.Policy,
			HistoryChunks: sa.HistoryChunks,
			SafetyFactor:  sa.Safety,
		}}, nil
	case "rpc":
		if len(sa.LadderKbps) > 0 || sa.ChunkS != 0 || sa.MaxBufS != 0 ||
			sa.Policy != "" || sa.HistoryChunks != 0 || sa.Safety != 0 {
			return nil, fmt.Errorf("%s: ladder_kbps/chunk_s/max_buf_s/policy are abr fields", where)
		}
		return &AppSpec{Kind: "rpc", RPC: app.RPCConfig{
			ThinkMeanS: sa.ThinkMs / 1000,
			RespBytes:  int(sa.RespKB * 1024),
		}}, nil
	}
	return nil, fmt.Errorf("%s: unknown app kind %q (want abr or rpc)", where, sa.Kind)
}

// ScenarioArrival is the JSON arrival clause. It accepts either a bare
// string naming a synthetic process ("poisson", "deterministic") or an
// object for processes with parameters of their own — today the
// trace-driven replay, {"kind": "replay", "file": "arrivals.csv"},
// which replays a recorded (time_s, bytes) log verbatim: arrival
// instants and transfer sizes both come from the file (relative to the
// workload's start_s), so per_s and size must be absent.
type ScenarioArrival struct {
	Kind string `json:"kind"`
	File string `json:"file,omitempty"`
}

// UnmarshalJSON accepts the string and object forms.
func (sa *ScenarioArrival) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &sa.Kind)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	type plain ScenarioArrival // drop the method set to avoid recursion
	return dec.Decode((*plain)(sa))
}

// MarshalJSON emits the compact string form when only a kind is set, so
// parse → marshal → parse round-trips both spellings.
func (sa ScenarioArrival) MarshalJSON() ([]byte, error) {
	if sa.File == "" {
		return json.Marshal(sa.Kind)
	}
	type plain ScenarioArrival
	return json.Marshal(plain(sa))
}

// ScenarioWorkload is the JSON workload clause: an open-loop arrival
// process spawning finite flows mid-run.
type ScenarioWorkload struct {
	Scheme string `json:"scheme"`
	Class  string `json:"class,omitempty"`
	// Arrival selects the process: "poisson" (the default) with per_s
	// arrivals per second, "deterministic" with the same mean gap, or
	// {"kind": "replay", "file": ...} to replay a recorded log.
	Arrival *ScenarioArrival `json:"arrival,omitempty"`
	PerS    float64          `json:"per_s,omitempty"`
	Size    ScenarioSize     `json:"size,omitempty"`
	StartS  float64          `json:"start_s"`
	StopS   float64          `json:"stop_s"`
	// Routing, exactly as on flows.
	Dir     string   `json:"dir,omitempty"`
	EnterAt int      `json:"enter_at,omitempty"`
	ExitAt  int      `json:"exit_at,omitempty"`
	Path    []string `json:"path,omitempty"`
	AckPath []string `json:"ack_path,omitempty"`
	RTTms   float64  `json:"rtt_ms,omitempty"`
	// MaxActive caps concurrent spawned flows (default 1024).
	MaxActive int `json:"max_active,omitempty"`
	// RefMbps enables slowdown reporting against this reference rate.
	RefMbps float64 `json:"ref_mbps,omitempty"`
}

// ScenarioSize is the JSON flow-size clause. Kinds: "fixed" (kb),
// "pareto" (bounded Pareto over [min_kb, max_kb] with tail index alpha)
// and "choice" (empirical pmf over sizes_kb, optionally weighted).
type ScenarioSize struct {
	Kind    string    `json:"kind"`
	KB      float64   `json:"kb,omitempty"`
	MinKB   float64   `json:"min_kb,omitempty"`
	MaxKB   float64   `json:"max_kb,omitempty"`
	Alpha   float64   `json:"alpha,omitempty"`
	SizesKB []float64 `json:"sizes_kb,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
}

// compile builds the size distribution. where locates the clause.
func (sz *ScenarioSize) compile(where string) (app.SizeDist, error) {
	switch sz.Kind {
	case "fixed":
		if sz.KB <= 0 {
			return nil, fmt.Errorf("%s: fixed size needs kb > 0", where)
		}
		return app.FixedSize{Bytes: int(sz.KB * 1024)}, nil
	case "pareto":
		if sz.MinKB <= 0 || sz.MaxKB < sz.MinKB {
			return nil, fmt.Errorf("%s: pareto size needs 0 < min_kb <= max_kb", where)
		}
		// Absent alpha (0) takes the web-workload default; a negative one
		// is a typo that must not silently become a different tail index.
		alpha := sz.Alpha
		if alpha < 0 {
			return nil, fmt.Errorf("%s: pareto size needs alpha > 0 (or omit it for the 1.2 default)", where)
		}
		if alpha == 0 {
			alpha = 1.2
		}
		return app.BoundedPareto{
			Min:   int(sz.MinKB * 1024),
			Max:   int(sz.MaxKB * 1024),
			Alpha: alpha,
		}, nil
	case "choice":
		if len(sz.SizesKB) == 0 {
			return nil, fmt.Errorf("%s: choice size needs sizes_kb", where)
		}
		if len(sz.Weights) > 0 && len(sz.Weights) != len(sz.SizesKB) {
			return nil, fmt.Errorf("%s: weights must match sizes_kb (%d != %d)", where, len(sz.Weights), len(sz.SizesKB))
		}
		var totalW float64
		for i, w := range sz.Weights {
			if w < 0 {
				return nil, fmt.Errorf("%s: weights[%d] must be >= 0", where, i)
			}
			totalW += w
		}
		if len(sz.Weights) > 0 && totalW == 0 {
			return nil, fmt.Errorf("%s: weights sum to zero (omit them for a uniform pick)", where)
		}
		sizes := make([]int, len(sz.SizesKB))
		for i, kb := range sz.SizesKB {
			if kb <= 0 {
				return nil, fmt.Errorf("%s: sizes_kb[%d] must be > 0", where, i)
			}
			sizes[i] = int(kb * 1024)
		}
		return app.Choice{Sizes: sizes, Weights: sz.Weights}, nil
	}
	return nil, fmt.Errorf("%s: unknown size kind %q (want fixed, pareto or choice)", where, sz.Kind)
}

// ScenarioEdge is one directed edge of a mesh scenario: a link clause
// plus a name and its two endpoints.
type ScenarioEdge struct {
	Name string `json:"name"`
	From string `json:"from"`
	To   string `json:"to"`
	ScenarioLink
}

// ScenarioEvent is one entry of the timed event timeline. Kind-specific
// fields: reroute takes flow/ack/path, set_rate takes edge/rate_mbps,
// set_delay takes edge/delay_ms, link_down/link_up take edge.
type ScenarioEvent struct {
	AtS      float64  `json:"at_s"`
	Kind     string   `json:"kind"`
	Flow     int      `json:"flow,omitempty"`
	Ack      bool     `json:"ack,omitempty"`
	Path     []string `json:"path,omitempty"`
	Edge     string   `json:"edge,omitempty"`
	RateMbps float64  `json:"rate_mbps,omitempty"`
	DelayMs  float64  `json:"delay_ms,omitempty"`
	// Attack is the adversarial stage installed by "attack" events.
	Attack *ScenarioAttack `json:"attack,omitempty"`
}

// ScenarioRouting is the JSON routing clause: policy-driven route
// computation for the scenario's flows.
type ScenarioRouting struct {
	Policy      string  `json:"policy,omitempty"`
	K           int     `json:"k,omitempty"`
	RecomputeMs float64 `json:"recompute_ms,omitempty"`
	DrainMs     float64 `json:"drain_ms,omitempty"`
	Flows       []int   `json:"flows,omitempty"`
}

// ScenarioBackground is one entry of the "background" clause: a fluid
// aggregate standing in for many virtual flows on a named edge. Kinds:
// "const" (fixed rate_mbps), "aimd" (flows virtual AIMD flows, rate
// derived from Eq. 13; rtt_ms sets the ensemble RTT) and "onoff"
// (rate_mbps gated by an on_s/off_s square schedule).
type ScenarioBackground struct {
	Edge     string  `json:"edge"`
	Kind     string  `json:"kind"`
	Flows    int     `json:"flows,omitempty"`
	RateMbps float64 `json:"rate_mbps,omitempty"`
	RampS    float64 `json:"ramp_s,omitempty"`
	OnS      float64 `json:"on_s,omitempty"`
	OffS     float64 `json:"off_s,omitempty"`
	StartS   float64 `json:"start_s,omitempty"`
	StopS    float64 `json:"stop_s,omitempty"`
	StepMs   float64 `json:"step_ms,omitempty"`
	RTTms    float64 `json:"rtt_ms,omitempty"`
}

// Scenario is a complete declarative scenario file: either a chain
// (links / reverse_links) or a mesh (nodes / edges).
type Scenario struct {
	Name      string  `json:"name"`
	Seed      int64   `json:"seed"`
	DurationS float64 `json:"duration_s"`
	WarmupS   float64 `json:"warmup_s"`
	RTTms     float64 `json:"rtt_ms"`
	SampleMs  float64 `json:"sample_ms"`
	// Shards splits the simulation into this many parallel event queues
	// synchronized by conservative lookahead (0/1 = one queue). ShardMap
	// pins named junctions (mesh node names, or the chain junctions
	// "fwd<i>"/"rev<i>") to shard indices; unpinned junctions are placed
	// by the automatic partitioner.
	Shards       int            `json:"shards,omitempty"`
	ShardMap     map[string]int `json:"shard_map,omitempty"`
	Links        []ScenarioLink `json:"links,omitempty"`
	ReverseLinks []ScenarioLink `json:"reverse_links,omitempty"`
	Nodes        []string       `json:"nodes,omitempty"`
	Edges        []ScenarioEdge `json:"edges,omitempty"`
	Flows        []ScenarioFlow `json:"flows"`
	// Workloads spawn flows mid-run from open-loop arrival processes.
	Workloads []ScenarioWorkload `json:"workloads,omitempty"`
	// Events mutate the topology mid-run on the simulation clock.
	Events []ScenarioEvent `json:"events,omitempty"`
	// Routing enables policy-driven route computation.
	Routing *ScenarioRouting `json:"routing,omitempty"`
	// Background attaches fluid aggregates to named edges.
	Background []ScenarioBackground `json:"background,omitempty"`

	// dir is the directory the scenario was loaded from; relative file
	// references (replay logs) resolve against it. Empty for scenarios
	// parsed from raw bytes, which resolve against the process cwd.
	dir string
}

// LoadScenario reads and parses a scenario file. File references inside
// the scenario (e.g. a replay arrival's log) resolve relative to the
// scenario file's directory.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := ParseScenario(data)
	if err != nil {
		return nil, err
	}
	sc.dir = filepath.Dir(path)
	return sc, nil
}

// ParseScenario parses a scenario from JSON bytes. Unknown keys are an
// error: a typo'd field name must fail loudly, not silently leave a
// default in place.
func ParseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return &sc, nil
}

// clock converts the scenario's float durations to sim.Time and keeps the
// first that does not fit its int64 nanoseconds: a duration_s of 1e300
// would otherwise wrap negative or saturate, depending on the CPU, and
// mean something the file does not say.
type clock struct{ err error }

// s converts seconds.
func (ck *clock) s(v float64) sim.Time {
	if ck.err == nil && !(math.Abs(v) < math.MaxInt64/float64(sim.Second)) {
		ck.err = fmt.Errorf("scenario: a duration of %g s does not fit the clock", v)
	}
	return sim.FromSeconds(v)
}

// ms converts milliseconds.
func (ck *clock) ms(v float64) sim.Time { return ck.s(v / 1000) }

// synthetic guards the steps/square trace generators, which materialise
// one entry per delivery opportunity on a 1 ms grid, holding each rate
// for one period. The period is tested as the clock sees it (1e-9 ms is
// positive and still 0 ns), and the loop's length and size are bounded,
// so a stray exponent is an error rather than a gigabyte.
func synthetic(where, key string, period sim.Time, bps ...float64) error {
	const max = 1 << 22 // ms and packets a loop: 70 minutes at 14 Mbit/s
	n := sim.Time(len(bps))
	if period <= 0 || period > max*sim.Millisecond/n || slices.Max(bps)*(n*period).Seconds() > max*packet.MTU*8 {
		return fmt.Errorf("%s: %s must be at least 1 ns, and one loop of the trace at most %d ms and %d packets", where, key, max, max)
	}
	return nil
}

// compileLink turns one link clause into a LinkSpec.
func compileLink(ck *clock, sl *ScenarioLink, idx int, chain string) (LinkSpec, error) {
	ls := LinkSpec{
		Kind:      sl.Kind,
		Delay:     ck.ms(sl.DelayMs),
		Lookahead: ck.ms(sl.LookaheadMs),
		Impair: topo.Impairments{
			LossRate:      sl.Loss,
			BurstLossRate: sl.BurstLoss,
			BurstPBad:     sl.BurstPBad,
			BurstPGood:    sl.BurstPGood,
			Jitter:        ck.ms(sl.JitterMs),
			ReorderProb:   sl.ReorderProb,
			ReorderDelay:  ck.ms(sl.ReorderDelayMs),
		},
		Qdisc: QdiscSpec{
			Kind:      sl.Qdisc.Kind,
			Buffer:    sl.Qdisc.Buffer,
			ABCConfig: sl.Qdisc.routerConfig(ck),
		},
	}
	where := fmt.Sprintf("scenario: %s[%d]", chain, idx)
	if sl.Attack != nil {
		a, err := sl.Attack.compile(ck, where+".attack")
		if err != nil {
			return LinkSpec{}, err
		}
		ls.Attack = a
	}
	switch sl.Kind {
	case "wire":
		// Pure propagation hop: no bottleneck model, no qdisc. The stray
		// fields would be dropped in translation, so they are caught here.
		if sl.Trace != "" || len(sl.StepsMbps) > 0 || sl.SquareHiMbps > 0 ||
			sl.RateMbps > 0 || sl.MCS != nil || sl.Estimate || sl.LookaheadMs > 0 {
			return LinkSpec{}, fmt.Errorf("%s: wire links carry no bottleneck model", where)
		}
		if sl.Qdisc != (ScenarioQdisc{}) {
			return LinkSpec{}, fmt.Errorf("%s: wire links have no qdisc", where)
		}
	case "trace", "":
		switch {
		case sl.Trace != "":
			tr, err := trace.NamedCellular(sl.Trace)
			if err != nil {
				return LinkSpec{}, fmt.Errorf("%s: %v", where, err)
			}
			ls.Trace = tr
		case len(sl.StepsMbps) > 0:
			bps := make([]float64, len(sl.StepsMbps))
			for i, m := range sl.StepsMbps {
				bps[i] = m * 1e6
			}
			step := ck.ms(sl.StepMs)
			if err := synthetic(where, "step_ms", step, bps...); err != nil {
				return LinkSpec{}, err
			}
			ls.Trace = trace.Steps(fmt.Sprintf("%s-steps-%d", chain, idx), bps, step)
		case sl.SquareHiMbps > 0:
			half := ck.ms(sl.SquareHalfMs)
			if err := synthetic(where, "square_half_ms", half, sl.SquareLoMbps*1e6, sl.SquareHiMbps*1e6); err != nil {
				return LinkSpec{}, err
			}
			ls.Trace = trace.SquareWave(fmt.Sprintf("%s-square-%d", chain, idx),
				sl.SquareLoMbps*1e6, sl.SquareHiMbps*1e6, half)
		case sl.RateMbps > 0 && sl.Kind == "":
			ls.Kind = "rate"
			ls.Rate = netem.ConstRate(sl.RateMbps * 1e6)
		}
		if ls.Kind == "" {
			ls.Kind = "trace"
		}
	case "rate":
		if sl.RateMbps <= 0 {
			return LinkSpec{}, fmt.Errorf("%s: rate link needs rate_mbps > 0", where)
		}
		ls.Rate = netem.ConstRate(sl.RateMbps * 1e6)
	case "wifi":
		cfg := wifi.DefaultLinkConfig()
		if sl.MCS != nil {
			mcs := *sl.MCS
			cfg.MCS = func(sim.Time) int { return mcs }
		}
		ls.Wifi = &WiFiLinkSpec{Config: cfg, Estimate: sl.Estimate}
	}
	return ls, nil
}

// Compile turns the scenario into a runnable Spec: it translates the
// file's vocabulary — string enums, shorthands, trace names and replay
// files, float units — rejecting what the translation would otherwise
// lose, and hands the Spec to Check. A scenario is valid iff it builds,
// so every error Run could raise is a Compile error.
func (sc *Scenario) Compile() (Spec, error) {
	var ck clock
	spec := Spec{
		Seed:     sc.Seed,
		Duration: ck.s(sc.DurationS),
		Warmup:   ck.s(sc.WarmupS),
		RTT:      ck.ms(sc.RTTms),
		Sample:   ck.ms(sc.SampleMs),
		Shards:   sc.Shards,
		ShardMap: sc.ShardMap,
	}
	// A Go sweep may carry its ShardMap down to one shard; a file that
	// pins junctions and never asks for shards has lost a key.
	if len(sc.ShardMap) > 0 && sc.Shards <= 1 {
		return Spec{}, fmt.Errorf("scenario: shard_map needs shards > 1")
	}
	for i := range sc.Links {
		ls, err := compileLink(&ck, &sc.Links[i], i, "links")
		if err != nil {
			return Spec{}, err
		}
		spec.Links = append(spec.Links, ls)
	}
	for i := range sc.ReverseLinks {
		ls, err := compileLink(&ck, &sc.ReverseLinks[i], i, "reverse_links")
		if err != nil {
			return Spec{}, err
		}
		spec.ReverseLinks = append(spec.ReverseLinks, ls)
	}
	spec.Nodes = append(spec.Nodes, sc.Nodes...)
	for i := range sc.Edges {
		se := &sc.Edges[i]
		ls, err := compileLink(&ck, &se.ScenarioLink, i, "edges")
		if err != nil {
			return Spec{}, err
		}
		spec.Edges = append(spec.Edges, EdgeSpec{Name: se.Name, From: se.From, To: se.To, Link: ls})
	}
	for i := range sc.Flows {
		sf := &sc.Flows[i]
		where := fmt.Sprintf("scenario: flows[%d]", i)
		fs := FlowSpec{
			Scheme:    sf.Scheme,
			Start:     ck.s(sf.StartS),
			Stop:      ck.s(sf.StopS),
			EnterAt:   sf.EnterAt,
			ExitAt:    sf.ExitAt,
			RTT:       ck.ms(sf.RTTms),
			Path:      sf.Path,
			AckPath:   sf.AckPath,
			Misbehave: sf.Misbehave,
		}
		var err error
		if fs.Dir, err = compileDir(where, sf.Dir); err != nil {
			return Spec{}, err
		}
		src := sf.Source
		if sf.RateMbps != 0 {
			if src != nil {
				return Spec{}, fmt.Errorf("%s: rate_mbps is shorthand for a rate source; drop it when a source clause is present", where)
			}
			src = &ScenarioSource{Kind: "rate", Mbps: sf.RateMbps}
		}
		if src != nil {
			if fs.Source, err = src.compile(&ck, where+".source"); err != nil {
				return Spec{}, err
			}
		}
		if sf.App != nil {
			if fs.App, err = sf.App.compile(where + ".app"); err != nil {
				return Spec{}, err
			}
		}
		spec.Flows = append(spec.Flows, fs)
	}
	for i := range sc.Workloads {
		sw := &sc.Workloads[i]
		where := fmt.Sprintf("scenario: workloads[%d]", i)
		ws := WorkloadSpec{
			Scheme:    sw.Scheme,
			Class:     sw.Class,
			Start:     ck.s(sw.StartS),
			Stop:      ck.s(sw.StopS),
			EnterAt:   sw.EnterAt,
			ExitAt:    sw.ExitAt,
			Path:      sw.Path,
			AckPath:   sw.AckPath,
			RTT:       ck.ms(sw.RTTms),
			MaxActive: sw.MaxActive,
			RefMbps:   sw.RefMbps,
		}
		var err error
		if ws.Dir, err = compileDir(where, sw.Dir); err != nil {
			return Spec{}, err
		}
		kind, file := "", ""
		if sw.Arrival != nil {
			kind, file = sw.Arrival.Kind, sw.Arrival.File
		}
		if kind != "replay" && file != "" {
			return Spec{}, fmt.Errorf("%s: file is a replay-arrival field", where)
		}
		switch kind {
		case "", "poisson", "deterministic":
			if sw.PerS <= 0 {
				return Spec{}, fmt.Errorf("%s: needs per_s > 0", where)
			}
			ws.Arrival = app.Poisson{PerSec: sw.PerS}
			if kind == "deterministic" {
				ws.Arrival = app.Deterministic{Gap: ck.s(1 / sw.PerS)}
			}
		case "replay":
			// The log carries both the arrival instants and the transfer
			// sizes, so the synthetic-process knobs must be absent.
			if file == "" {
				return Spec{}, fmt.Errorf("%s: replay arrival needs a file", where)
			}
			if sw.PerS != 0 {
				return Spec{}, fmt.Errorf("%s: per_s conflicts with a replay arrival (the log fixes the instants)", where)
			}
			if sw.Size.Kind != "" || sw.Size.KB != 0 || sw.Size.MinKB != 0 || sw.Size.MaxKB != 0 ||
				sw.Size.Alpha != 0 || len(sw.Size.SizesKB) != 0 || len(sw.Size.Weights) != 0 {
				return Spec{}, fmt.Errorf("%s: size conflicts with a replay arrival (the log fixes the sizes)", where)
			}
			if !filepath.IsAbs(file) && sc.dir != "" {
				file = filepath.Join(sc.dir, file)
			}
			rp, err := app.LoadReplay(file)
			if err != nil {
				return Spec{}, fmt.Errorf("%s: %v", where, err)
			}
			ws.Arrival, ws.Sizes = rp, rp
		default:
			return Spec{}, fmt.Errorf("%s: unknown arrival %q (want poisson, deterministic or replay)", where, kind)
		}
		if ws.Sizes == nil {
			if ws.Sizes, err = sw.Size.compile(where + ".size"); err != nil {
				return Spec{}, err
			}
		}
		spec.Workloads = append(spec.Workloads, ws)
	}
	for i := range sc.Events {
		se := &sc.Events[i]
		ev := EventSpec{
			At:       ck.s(se.AtS),
			Kind:     se.Kind,
			Flow:     se.Flow,
			Ack:      se.Ack,
			Path:     se.Path,
			Edge:     se.Edge,
			RateMbps: se.RateMbps,
			Delay:    ck.ms(se.DelayMs),
		}
		if se.Attack != nil {
			var err error
			if ev.Attack, err = se.Attack.compile(&ck, fmt.Sprintf("scenario: events[%d].attack", i)); err != nil {
				return Spec{}, err
			}
		}
		spec.Events = append(spec.Events, ev)
	}
	if sr := sc.Routing; sr != nil {
		spec.Routing = &RoutingSpec{
			Policy:           sr.Policy,
			K:                sr.K,
			RecomputeLatency: ck.ms(sr.RecomputeMs),
			Drain:            ck.ms(sr.DrainMs),
			Flows:            sr.Flows,
		}
	}
	for i := range sc.Background {
		sb := &sc.Background[i]
		spec.Background = append(spec.Background, BackgroundSpec{
			Edge:     sb.Edge,
			Kind:     sb.Kind,
			Flows:    sb.Flows,
			RateMbps: sb.RateMbps,
			Ramp:     ck.s(sb.RampS),
			On:       ck.s(sb.OnS),
			Off:      ck.s(sb.OffS),
			Start:    ck.s(sb.StartS),
			Stop:     ck.s(sb.StopS),
			Step:     ck.ms(sb.StepMs),
			RTT:      ck.ms(sb.RTTms),
		})
	}
	if ck.err != nil {
		return Spec{}, ck.err
	}
	if err := Check(spec); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// compileDir parses a flow's or workload's dir enum.
func compileDir(where, dir string) (Direction, error) {
	switch dir {
	case "", "forward":
		return Forward, nil
	case "reverse":
		return Reverse, nil
	}
	return 0, fmt.Errorf("%s: unknown dir %q (want forward or reverse)", where, dir)
}
