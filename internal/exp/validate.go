// The first stage of compile: what can be said about a Spec before
// anything is translated or built. Only graph-independent rules live here
// — the sign and range of every duration, probability, rate and count,
// which clauses may be combined, and which fields a kind reads — so that
// a value which would otherwise be ignored (a negative buffer, a rate on
// a backlogged source), mean something else (a loss rate of 7 drops
// every packet), never fire (a flow that stops before it starts) or
// crash the clock (a negative start) is a loud error for Go and JSON
// callers alike: a scenario file decodes straight into a Spec, so these
// are its rules too. Zero keeps meaning "take the default" wherever a
// field has one. Whatever needs names, routes or built links is checked
// by the stage that resolves or builds them.
package exp

import (
	"fmt"

	"abc/internal/app"
	"abc/internal/sim"
)

// maxShards bounds Spec.Shards to something a machine could plausibly
// run; beyond this a typo is far more likely than a 128-core box.
const maxShards = 64

// maxArrivalsPerSec bounds an open-loop arrival process. Past one flow a
// microsecond the gaps approach the clock's 1 ns resolution and the run
// does nothing but spawn (1e12 a second took over 20 s of wall time for
// one simulated second).
const maxArrivalsPerSec = 1e6

// validate returns the Spec's first violation of a graph-independent
// rule.
func (spec *Spec) validate() error {
	// A violation is located by its clause — kind "" is the Spec itself —
	// and the location is spelled only once something is wrong.
	var err error
	fail := func(kind string, i int, format string, args ...any) {
		if err != nil {
			return
		}
		if kind != "" {
			format = fmt.Sprintf("%s %d: %s", kind, i, format)
		}
		err = fmt.Errorf("exp: "+format, args...)
	}
	type dur struct {
		name string
		v    sim.Time
	}
	nonNeg := func(kind string, i int, ds ...dur) {
		for _, d := range ds {
			if d.v < 0 {
				fail(kind, i, "negative %s %v", d.name, d.v)
			}
		}
	}
	prob := func(kind string, i int, name string, p float64) {
		if !(p >= 0 && p <= 1) {
			fail(kind, i, "%s %v is not a probability in [0, 1]", name, p)
		}
	}
	// lifetime covers what flows and workloads share.
	lifetime := func(kind string, i int, start, stop, rtt sim.Time) {
		nonNeg(kind, i, dur{"Start", start}, dur{"Stop", stop}, dur{"RTT", rtt})
		if stop != 0 && stop <= start {
			fail(kind, i, "Stop %v is not after Start %v; it would never send", stop, start)
		}
	}
	link := func(kind string, i int, ls *LinkSpec) {
		im, qd := &ls.Impair, &ls.Qdisc
		nonNeg(kind, i, dur{"Delay", ls.Delay}, dur{"Lookahead", ls.Lookahead}, dur{"Impair.Jitter", im.Jitter})
		if qd.ABCConfig != nil {
			nonNeg(kind, i, dur{"Qdisc.ABCConfig.DelayThreshold", qd.ABCConfig.DelayThreshold})
		}
		if qd.Buffer < 0 {
			fail(kind, i, "negative Qdisc.Buffer %d", qd.Buffer)
		}
		prob(kind, i, "Impair.LossRate", im.LossRate)
		prob(kind, i, "Impair.BurstLossRate", im.BurstLossRate)
		prob(kind, i, "Impair.BurstPBad", im.BurstPBad)
		prob(kind, i, "Impair.BurstPGood", im.BurstPGood)
		// One model per link, and a rate link that can send: at rate 0 it
		// would poll every millisecond forever.
		models := 0
		for _, set := range []bool{ls.Trace != nil, ls.Rate != 0, ls.Wifi != nil} {
			if set {
				models++
			}
		}
		bare := LinkSpec{Trace: ls.Trace, Rate: ls.Rate, Wifi: ls.Wifi}
		if ls.Kind != "wire" && (models > 1 || models == 1 && ls.Kind != "" && ls.Kind != bare.model()) {
			fail(kind, i, "a link carries the one model its Kind names (set one of Trace, Rate and Wifi)")
		}
		if ls.model() == "rate" && !(ls.Rate > 0) {
			fail(kind, i, "Rate %v is not a positive bit rate", ls.Rate)
		}
		if ls.Wifi != nil {
			if e := ls.Wifi.MCS.Validate(); e != nil {
				fail(kind, i, "%v", e)
			}
		}
	}

	// A negative sampling period and a negative shard count are wiring
	// bugs, not requests for "off".
	nonNeg("", 0, dur{"Duration", spec.Duration}, dur{"Warmup", spec.Warmup}, dur{"RTT", spec.RTT}, dur{"Sample", spec.Sample})
	if spec.Shards < 0 {
		fail("", 0, "negative Shards %d", spec.Shards)
	}
	for i := range spec.Links {
		link("link", i, &spec.Links[i])
	}
	for i := range spec.ReverseLinks {
		link("reverse link", i, &spec.ReverseLinks[i])
	}
	for i := range spec.Edges {
		link("edge", i, &spec.Edges[i].Link)
	}
	for i := range spec.Flows {
		fs := &spec.Flows[i]
		lifetime("flow", i, fs.Start, fs.Stop, fs.RTT)
		if e := fs.Source.validate(); e != nil {
			fail("flow", i, "%v", e)
		}
		if fs.App != nil && fs.Source != nil {
			fail("flow", i, "App and Source are mutually exclusive (the app owns the source)")
		}
		if e := fs.App.validate(); e != nil {
			fail("flow", i, "%v", e)
		}
	}
	for i := range spec.Workloads {
		ws := &spec.Workloads[i]
		lifetime("workload", i, ws.Start, ws.Stop, ws.RTT)
		if ws.MaxActive < 0 {
			fail("workload", i, "negative MaxActive %d", ws.MaxActive)
		}
		if ws.RefMbps < 0 {
			fail("workload", i, "negative RefMbps %v", ws.RefMbps)
		}
		switch a := ws.Arrival.(type) {
		case nil:
			fail("workload", i, "missing Arrival process")
		case app.Poisson:
			if !(a.PerSec > 0 && a.PerSec <= maxArrivalsPerSec) {
				fail("workload", i, "Poisson.PerSec %v outside (0, %g]", a.PerSec, float64(maxArrivalsPerSec))
			}
		case app.Deterministic:
			if a.Gap < sim.Second/maxArrivalsPerSec {
				fail("workload", i, "Deterministic.Gap %v below the 1 µs minimum", a.Gap)
			}
		case app.Replay:
			// The log carries both the arrival instants and the sizes.
			if a.File == "" {
				fail("workload", i, "replay arrival needs a File")
			}
			if ws.Sizes != nil {
				fail("workload", i, "Sizes conflicts with a replay arrival (the log fixes the sizes)")
			}
		}
		if _, replay := ws.Arrival.(app.Replay); !replay && ws.Sizes == nil {
			fail("workload", i, "missing Sizes distribution")
		}
		if e := validateSizes(ws.Sizes); e != nil {
			fail("workload", i, "%v", e)
		}
	}
	// The rest of a background's ranges are the fluid package's to check.
	for i := range spec.Background {
		bs := &spec.Background[i]
		nonNeg("background", i, dur{"Step", bs.Step})
		if bs.Flows < 0 {
			fail("background", i, "negative Flows %d", bs.Flows)
		}
	}
	if err == nil {
		err = validateRouting(spec)
	}
	// A ShardMap on a one-shard spec is inert, so a sweep over shard
	// counts can carry one.
	if err == nil && spec.Shards > 1 {
		err = checkShardable(spec)
	}
	return err
}

// validate rejects an unknown kind and parameters the kind does not read
// or cannot run with.
func (s *SourceSpec) validate() error {
	if s == nil {
		return nil
	}
	switch s.Kind {
	case "rate":
		if !(s.Rate > 0) {
			return fmt.Errorf("a rate source needs Rate > 0")
		}
	case "onoff":
		if s.On <= 0 || s.Off < 0 || s.Start < 0 {
			return fmt.Errorf("an onoff source needs On > 0, Off >= 0 and Start >= 0")
		}
	case "fixed":
		if s.Bytes <= 0 {
			return fmt.Errorf("a fixed source needs Bytes > 0")
		}
	default:
		return fmt.Errorf("unknown source kind %q (want rate, onoff or fixed)", s.Kind)
	}
	return nil
}

// validate rejects an unknown kind, the other kind's fields, negative
// parameters (zero takes the default) and a ladder that is not strictly
// ascending and positive.
func (as *AppSpec) validate() error {
	if as == nil {
		return nil
	}
	abr, rpc := as.ABR, as.RPC
	if abr.ChunkS < 0 || abr.MaxBufS < 0 || rpc.ThinkMean < 0 || rpc.RespBytes < 0 {
		return fmt.Errorf("app: negative parameters (leave a field zero for its default)")
	}
	switch as.Kind {
	case "abr":
		if rpc != (app.RPCConfig{}) {
			return fmt.Errorf("app: ThinkMean/RespBytes are rpc fields")
		}
		for i, kbps := range abr.LadderKbps {
			if !(kbps > 0) || i > 0 && kbps <= abr.LadderKbps[i-1] {
				return fmt.Errorf("app: LadderKbps must be positive and strictly ascending")
			}
		}
	case "rpc":
		if abr.LadderKbps != nil || abr.ChunkS != 0 || abr.MaxBufS != 0 {
			return fmt.Errorf("app: the ABR fields are abr fields")
		}
	default:
		return fmt.Errorf("app: unknown app kind %q (want abr or rpc)", as.Kind)
	}
	return nil
}

// validateSizes rejects a size distribution that draws no positive size.
// A zero Pareto Alpha takes the 1.2 default; a negative one is a typo.
func validateSizes(sd app.SizeDist) error {
	switch d := sd.(type) {
	case app.FixedSize:
		if d.Bytes <= 0 {
			return fmt.Errorf("FixedSize needs Bytes > 0")
		}
	case app.BoundedPareto:
		if d.Min <= 0 || d.Max < d.Min || d.Alpha < 0 {
			return fmt.Errorf("BoundedPareto needs 0 < Min <= Max and Alpha >= 0")
		}
	}
	return nil
}

// validateRouting rejects malformed Routing clauses before any wiring
// happens. Nil Routing is valid (the layer is opt-in).
func validateRouting(spec *Spec) error {
	rs := spec.Routing
	if rs == nil {
		return nil
	}
	switch rs.Policy {
	case "", "shortest":
		if rs.K != 0 {
			return fmt.Errorf("exp: routing: K is a kfailover knob; policy %q would silently ignore K=%d (set Policy \"kfailover\" or drop K)", "shortest", rs.K)
		}
	case "kfailover":
		if rs.K < 0 {
			return fmt.Errorf("exp: routing: negative K %d", rs.K)
		}
	default:
		return fmt.Errorf("exp: routing: unknown policy %q (want \"shortest\" or \"kfailover\")", rs.Policy)
	}
	if rs.RecomputeLatency < 0 {
		return fmt.Errorf("exp: routing: negative RecomputeLatency %v", rs.RecomputeLatency)
	}
	if rs.Drain < 0 {
		return fmt.Errorf("exp: routing: negative Drain %v", rs.Drain)
	}
	if len(spec.Flows) == 0 {
		return fmt.Errorf("exp: routing: spec has no flows to manage (workload-spawned flows are not manageable)")
	}
	return nil
}

// checkShardable rejects what a spec may not combine with Shards > 1,
// and ShardMap pins to shards it does not have.
//
// Both remaining gates are simulator events on shard 0 that act on the
// whole graph — a workload arrival installs routes and builds endpoints
// wherever its path leads, the route-computation timer rewrites every
// junction's table — and both were measured as coordinator-barrier
// callbacks instead and kept as events: arrivals at barriers cost bench
// workload flow_churn about 8 % of its speed and changed its event
// count (21 k fewer events, a different result digest), and the
// recompute timer at a barrier flipped a same-instant tie that moves the
// autoroute and flapstorm goldens (mean delay 59.7330 -> 59.7339 ms).
// The Workloads gate also covers teardown: a spawned flow is unrouted
// from the end of its last packet by topo.Graph.UnrouteFlow, which
// edits tables on whatever shards the flow's junctions live on, so a
// cross-shard spawn must first make the unroute a barrier-time table
// edit. (The flow's packet.Tally is already shard-safe: one row per
// shard.)
func checkShardable(spec *Spec) error {
	if spec.Shards > maxShards {
		return fmt.Errorf("exp: Shards %d exceeds the maximum %d", spec.Shards, maxShards)
	}
	if len(spec.Workloads) > 0 {
		return fmt.Errorf("exp: Shards > 1 does not support Workloads (mid-run flow spawning is inherently cross-shard); run with Shards 1")
	}
	if spec.Routing != nil {
		return fmt.Errorf("exp: Shards > 1 does not support Routing (route recomputation mutates tables across shards); run with Shards 1")
	}
	for name, sh := range spec.ShardMap {
		if sh < 0 || sh >= spec.Shards {
			return fmt.Errorf("exp: ShardMap[%q] = %d out of range [0, %d)", name, sh, spec.Shards)
		}
	}
	return nil
}
