package exp

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"abc/internal/app"
	"abc/internal/metrics"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
)

// TestShardedMeshDigestInvariant is the multi-shard golden pick: the
// sharded-mesh driver must serialize byte-identically at 1, 2 and 4
// shards, whether one goroutine runs every shard inline (GOMAXPROCS 1)
// or helper workers run them behind the barrier. Anything less means the
// conservative synchronization let an event fire in a shard's past, the
// mailbox merge depended on who ran it, or a pooled metric depended on
// cross-flow arrival interleaving. No worker may outlive its run.
func TestShardedMeshDigestInvariant(t *testing.T) {
	const dur = 10 * sim.Second
	digest := func(shards int) string {
		t.Helper()
		r, err := ShardedMesh(shards, dur, 1)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if r.Drops != 0 {
			t.Fatalf("shards=%d: %d unrouted drops", shards, r.Drops)
		}
		if r.Flows[0].Bytes == 0 {
			t.Fatalf("shards=%d: no traffic measured", shards)
		}
		// Shards is the one field expected to differ; digest the rest.
		c := *r
		c.Shards = 0
		d, _, err := goldenDigest(&c)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := digest(1)
	goroutines := runtime.NumGoroutine()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{2, 4} {
			if got := digest(shards); got != want {
				t.Errorf("GOMAXPROCS=%d shards=%d: digest %s, want the sequential %s", procs, shards, got, want)
			}
		}
	}
	// A helper past its last barrier may still be exiting: give it time.
	for spins := 0; runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if spins++; spins > 1e7 {
			t.Fatalf("%d goroutines after the sharded runs, %d before them", runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestShardedPooledPercentilesInvariant: the pooled recorder and the
// adversary's victim and bystander recorders are merged from the
// per-flow recorders in flow order after the run, so each — count,
// percentiles and mean — is a function of the per-flow recorders alone
// and may not depend on the shard count in any bit.
func TestShardedPooledPercentilesInvariant(t *testing.T) {
	type stats struct {
		count               int
		mean, p50, p95, p99 float64
	}
	of := func(d *metrics.DelayRecorder) stats {
		return stats{d.Count(), d.Mean(), d.Percentile(50), d.Percentile(95), d.Percentile(99)}
	}
	var want [3]stats
	for _, shards := range []int{1, 2, 4} {
		spec := shardedMeshSpec(shards, 10*sim.Second, 1)
		// One attacked flow splits the flows into a victim and three
		// bystanders. Delay only: a drop would draw from an RNG.
		spec.Edges[0].Link.Attack = &topo.Attack{
			Target:     topo.Target{Flows: []int{0}},
			ExtraDelay: 3 * sim.Millisecond,
		}
		c, err := compile(spec, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		_, pooled, err := c.run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := [3]stats{of(pooled), of(&c.adv.victimDelay), of(&c.adv.bystanderDelay)}
		if shards == 1 {
			if got[0].count <= 4000 {
				t.Fatalf("pooled recorder holds %d samples; the run is too short to leave the raw-sample regime", got[0].count)
			}
			if got[1].count == 0 || got[1].count+got[2].count != got[0].count {
				t.Fatalf("victim %d + bystander %d samples, pooled %d", got[1].count, got[2].count, got[0].count)
			}
			want = got
			continue
		}
		for i, name := range []string{"pooled", "victim", "bystander"} {
			if got[i] != want[i] {
				t.Errorf("shards=%d: %s %+v, want the one-shard %+v", shards, name, got[i], want[i])
			}
		}
	}
}

// TestShardedMetricsSampling: a metered sharded run publishes the
// coordinator's self-accounting next to the per-shard event counts.
func TestShardedMetricsSampling(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg, 200*sim.Millisecond)
	defer EnableMetrics(nil, 0)
	if _, err := ShardedMesh(2, 2*sim.Second, 1); err != nil {
		t.Fatal(err)
	}
	have := map[string]float64{}
	for _, s := range reg.Snapshot() {
		have[s.Name] = s.Value
	}
	for _, name := range []string{
		"abc_shard_rounds_total",
		"abc_shard_mail_total",
		`abc_shard_events_total{shard="1"}`,
		`abc_shard_busy_seconds{shard="0"}`,
		`abc_shard_busy_seconds{shard="1"}`,
		`abc_shard_wait_seconds{shard="1"}`,
	} {
		if have[name] <= 0 {
			t.Errorf("%s = %g after a metered sharded run, want > 0", name, have[name])
		}
	}
}

// TestShardedMeshRepeatable: a fixed (seed, shard count) pair must be
// digest-stable run to run — parallel shard workers may not leak
// scheduling nondeterminism into the result.
func TestShardedMeshRepeatable(t *testing.T) {
	var first string
	for i := 0; i < 3; i++ {
		r, err := ShardedMesh(4, 10*sim.Second, 3)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := goldenDigest(r)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = d
		} else if d != first {
			t.Fatalf("run %d digest %s != first %s", i, d, first)
		}
	}
}

// BenchmarkShardBusy is the sharing diagnostic: it runs the sharded mesh
// at 2 shards and reports each shard's Coordinator.Busy per event it
// executed. The windows and their events do not depend on the worker
// count, so
//
//	go test ./internal/exp -run '^$' -bench ShardBusy -cpu 1,2
//
// prints the cost of the same work run by one worker (GOMAXPROCS 1, the
// shards back to back) and by two (side by side). A two-worker row above
// the one-worker row is what the shards charge each other through the
// memory system: state one shard writes on a cache line another shard
// reads or writes.
func BenchmarkShardBusy(b *testing.B) {
	var busy [2]time.Duration
	var events [2]uint64
	for i := 0; i < b.N; i++ {
		res, _, err := Run(shardedMeshSpec(2, 16*sim.Second, 1))
		if err != nil {
			b.Fatal(err)
		}
		c := res.Graph.Coordinator()
		for s := range busy {
			busy[s] += c.Busy(s)
			events[s] += c.Shard(s).Executed()
		}
	}
	for s := range busy {
		b.ReportMetric(float64(busy[s].Nanoseconds())/float64(events[s]), fmt.Sprintf("shard%d-busy-ns/event", s))
	}
}

// shardedTolerance asserts two measurements agree within frac.
func shardedTolerance(t *testing.T, what string, seq, sh, frac float64) {
	t.Helper()
	if seq == 0 && sh == 0 {
		return
	}
	ref := math.Max(math.Abs(seq), math.Abs(sh))
	if math.Abs(seq-sh) > frac*ref {
		t.Errorf("%s: sequential %v vs sharded %v differ by more than %.0f%%", what, seq, sh, frac*100)
	}
}

// TestShardedHandoverMatchesSequential runs the handover topology (mid-
// run reroute of both routes, executed as a coordinator global) sharded
// and compares it against the sequential run. Same-instant cross-shard
// ties may order differently than the sequential heap, so the
// comparison is behavioral (throughput/delay within tolerance), not a
// digest.
func TestShardedHandoverMatchesSequential(t *testing.T) {
	const dur = 12 * sim.Second
	spec := handoverSpec("ABC", dur/2, dur, 1)
	seq, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec = handoverSpec("ABC", dur/2, dur, 1)
	spec.Shards = 2
	sh, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Events) != 2 {
		t.Fatalf("sharded run executed %d events, want 2", len(sh.Events))
	}
	shardedTolerance(t, "throughput", seq.Flows[0].TputMbps, sh.Flows[0].TputMbps, 0.15)
	shardedTolerance(t, "mean delay", seq.Flows[0].Delay.Mean(), sh.Flows[0].Delay.Mean(), 0.15)
	if got, want := len(sh.Flows[0].Tput.Times), len(seq.Flows[0].Tput.Times); got != want || got != int(dur/spec.Sample) {
		t.Errorf("throughput series has %d samples sharded, %d sequential, want %d", got, want, dur/spec.Sample)
	}
	if seqB, shB := seq.Flows[0].Bytes, sh.Flows[0].Bytes; seqB == 0 || shB == 0 {
		t.Fatalf("no traffic: sequential %d bytes, sharded %d", seqB, shB)
	}
}

// TestShardedTargetedMatchesSequential: the targeted-attack chain (all
// four flows through one bottleneck, adversarial stage on the cut edge)
// sharded across the bottleneck vs sequential, within tolerance.
func TestShardedTargetedMatchesSequential(t *testing.T) {
	const dur = 12 * sim.Second
	build := func(shards int) Spec {
		spec := targetedSpec("ABC", dur, 1)
		// Give the single link a positive delay so the chain has a legal
		// shard cut (zero-delay edges are contracted, not cut).
		spec.Links[0].Delay = 4 * sim.Millisecond
		spec.Links[0].Attack = targetedAttack()
		spec.Shards = shards
		return spec
	}
	seq, _, err := Run(build(1))
	if err != nil {
		t.Fatal(err)
	}
	sh, _, err := Run(build(2))
	if err != nil {
		t.Fatal(err)
	}
	if sh.AdvDelayed == 0 && sh.Ledger.Released[packet.Adversary] == 0 {
		t.Fatal("sharded run recorded no adversarial actions; attack not exercised")
	}
	var seqTput, shTput float64
	for i := range seq.Flows {
		seqTput += seq.Flows[i].TputMbps
		shTput += sh.Flows[i].TputMbps
	}
	shardedTolerance(t, "aggregate throughput", seqTput, shTput, 0.15)
	shardedTolerance(t, "victim p95", seq.Flows[0].Delay.P95(), sh.Flows[0].Delay.P95(), 0.2)
	if seq.Adversary == nil || sh.Adversary == nil {
		t.Fatal("missing adversary report")
	}
	shardedTolerance(t, "victim class p95", seq.Adversary.VictimP95Ms, sh.Adversary.VictimP95Ms, 0.2)
}

// TestShardedSampleProbe: time series and probes are barrier reads, so
// the sharded mesh — whose result does not depend on the shard count —
// must produce the same series, sample for sample, and call the probe at
// the same instants with the same view of every flow, whether one worker
// or several wrote the state being read.
func TestShardedSampleProbe(t *testing.T) {
	const dur, period = 3 * sim.Second, 100 * sim.Millisecond
	type view struct {
		res    *Result
		probed []sim.Time
		cwnd   [][]float64
	}
	run := func(shards int) view {
		t.Helper()
		var v view
		spec := shardedMeshSpec(shards, dur, 1)
		spec.Sample = period
		v.res = runProbed(t, spec, period, func(now sim.Time, r *Result) {
			v.probed = append(v.probed, now)
			w := make([]float64, len(r.Flows))
			for i := range r.Flows {
				w[i] = r.Flows[i].Algorithm.CwndPkts()
			}
			v.cwnd = append(v.cwnd, w)
		})
		return v
	}
	want := run(1)
	if len(want.probed) != int(dur/period) {
		t.Fatalf("probe called %d times, want %d", len(want.probed), dur/period)
	}
	for i, at := range want.probed {
		if at != sim.Time(i+1)*period {
			t.Fatalf("probe call %d at %v, want %v", i, at, sim.Time(i+1)*period)
		}
	}
	if ts := want.res.Flows[0].Tput; len(ts.Times) != len(want.probed) || ts.Max() == 0 {
		t.Fatalf("flow 0 throughput series: %d samples, max %g", len(ts.Times), ts.Max())
	}
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if !reflect.DeepEqual(got.probed, want.probed) || !reflect.DeepEqual(got.cwnd, want.cwnd) {
			t.Errorf("shards=%d: the probe saw different instants or windows than at one shard", shards)
		}
		for i := range want.res.Flows {
			if !reflect.DeepEqual(got.res.Flows[i].Tput, want.res.Flows[i].Tput) {
				t.Errorf("shards=%d flow %d: throughput series differs from the one-shard run", shards, i)
			}
		}
		if !reflect.DeepEqual(got.res.QueueDelayTS, want.res.QueueDelayTS) {
			t.Errorf("shards=%d: queue-delay series differs from the one-shard run", shards)
		}
	}
}

// TestSampleIsPassive: a time series costs the run nothing it can
// observe — the same events execute and every flow measures the same,
// whatever the sampling period and whether or not it divides anything.
func TestSampleIsPassive(t *testing.T) {
	specs := map[string]func() Spec{
		"handover": func() Spec { return handoverSpec("ABC", 3*sim.Second, 6*sim.Second, 1) },
		"fig1": func() Spec {
			spec := fig1Spec(lteTrace(), "ABC", 1)
			spec.Duration = 6 * sim.Second
			return spec
		},
	}
	for name, mk := range specs {
		var want *Result
		for _, period := range []sim.Time{0, 100 * sim.Millisecond, 7 * sim.Millisecond} {
			spec := mk()
			spec.Sample = period
			got, _, err := Run(spec)
			if err != nil {
				t.Fatalf("%s sample=%v: %v", name, period, err)
			}
			if want == nil {
				want = got
				continue
			}
			if g, w := got.Graph.S.Executed(), want.Graph.S.Executed(); g != w {
				t.Errorf("%s sample=%v: %d events executed, %d unsampled", name, period, g, w)
			}
			for i := range want.Flows {
				g, w := &got.Flows[i], &want.Flows[i]
				if g.Bytes != w.Bytes || g.Lost != w.Lost || g.Retx != w.Retx ||
					!reflect.DeepEqual(&g.Delay, &w.Delay) || !reflect.DeepEqual(&g.QDelay, &w.QDelay) {
					t.Errorf("%s sample=%v flow %d: measurements differ from the unsampled run", name, period, i)
				}
			}
			if n := len(got.Flows[0].Tput.Times); n != int(spec.Duration/period) {
				t.Errorf("%s sample=%v: %d samples, want %d", name, period, n, spec.Duration/period)
			}
		}
	}
}

// TestShardedSpecValidation pins what may not be combined with
// Shards > 1.
func TestShardedSpecValidation(t *testing.T) {
	base := func() Spec {
		spec := shardedMeshSpec(2, 10*sim.Second, 1)
		return spec
	}

	spec := base()
	spec.Workloads = []WorkloadSpec{{Scheme: "Cubic", Path: []string{"bot0", "hop0"},
		Arrival: app.Poisson{PerSec: 1}, Sizes: app.FixedSize{Bytes: 1000}}}
	if _, _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "Workloads") {
		t.Errorf("Workloads on a sharded spec not rejected: %v", err)
	}

	spec = base()
	spec.ShardMap = map[string]int{"nope": 0}
	if _, _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Errorf("unknown ShardMap node not rejected: %v", err)
	}

	// A negative shard count is a typo, not a request for "off".
	spec = base()
	spec.Shards = -3
	if _, _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "negative Shards") {
		t.Errorf("negative Shards not rejected: %v", err)
	}
}

// TestScenarioShardsClause pins the declarative spelling: "shards" and
// "shard_map" decode into Spec.Shards/ShardMap, and malformed clauses
// fail Check with a static error.
func TestScenarioShardsClause(t *testing.T) {
	sc, err := parseScenario([]byte(`{
		"duration_s": 10,
		"shards": 2,
		"shard_map": {"a": 0, "b": 1},
		"nodes": ["a", "b"],
		"edges": [{"name": "e", "from": "a", "to": "b",
		           "kind": "rate", "rate_mbps": 8, "delay_ms": 3,
		           "qdisc": {"kind": "droptail", "buffer": 100}}],
		"flows": [{"scheme": "ABC", "path": ["e"]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(sc.Spec); err != nil {
		t.Fatal(err)
	}
	if sc.Spec.Shards != 2 || sc.Spec.ShardMap["b"] != 1 {
		t.Errorf("shards clause not carried into the Spec: %+v", sc.Spec.ShardMap)
	}

	bad := []struct {
		name, in, want string
	}{
		{"negative shards", `{"shards": -1, "flows": []}`, "negative Shards"},
		{"pin out of range", `{"shards": 2, "shard_map": {"a": 2}, "flows": []}`, "out of range"},
	}
	for _, tc := range bad {
		sc, err := parseScenario([]byte(tc.in))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if err := Check(sc.Spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestShardedRunEmptiesArenas: every flow of a run draws its packets
// from the graph's per-shard arenas, and when Run returns the arenas are
// empty, so a Result, which keeps its graph, holds no more packets than
// its run left in flight.
func TestShardedRunEmptiesArenas(t *testing.T) {
	spec := shardedMeshSpec(2, 2*sim.Second, 1)
	c, err := compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	arenas := c.g.Arenas()
	homes := map[int]bool{}
	for _, f := range c.flows {
		clear(arenas)
		f.ep.Tally.NewData(f.ep.Flow, 0, packet.MTU, 0)
		for i := range arenas {
			home := c.g.Coordinator().Shard(i).Simulator == f.ep.S
			if drawn := !reflect.ValueOf(arenas[i]).IsZero(); drawn != home {
				t.Errorf("flow %d drew from shard %d's arena: %v, want %v (true only for its sender's shard)", f.ep.Flow, i, drawn, home)
			}
			homes[i] = homes[i] || home
		}
	}
	if len(homes) != 2 || !homes[0] || !homes[1] {
		t.Fatalf("senders on shards %v, want flows on both", homes)
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	arenas = res.Graph.Arenas()
	if len(arenas) != 2 {
		t.Fatalf("%d arenas for 2 shards", len(arenas))
	}
	for i := range arenas {
		if !reflect.ValueOf(arenas[i]).IsZero() {
			t.Errorf("shard %d's arena holds packets after Run returned", i)
		}
	}
}
