package exp

import (
	"reflect"
	"strings"
	"testing"

	"abc/internal/abc"
	"abc/internal/app"
	"abc/internal/netem"
	"abc/internal/obs"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/trace"
)

// sameRun requires two results to agree on everything the chain lowering
// could disturb: per-flow bytes, delay recorders and loss counters,
// utilization, unrouted drops, event annotations and workload counts.
func sameRun(t *testing.T, chain, mesh *Result) {
	t.Helper()
	if len(chain.Flows) != len(mesh.Flows) {
		t.Fatalf("flows: chain %d, mesh %d", len(chain.Flows), len(mesh.Flows))
	}
	for i := range chain.Flows {
		c, m := &chain.Flows[i], &mesh.Flows[i]
		if c.Bytes == 0 {
			t.Errorf("flow %d delivered nothing; the comparison is vacuous", i)
		}
		if c.Bytes != m.Bytes || c.Lost != m.Lost || c.Retx != m.Retx {
			t.Errorf("flow %d: chain bytes/lost/retx %d/%d/%d, mesh %d/%d/%d",
				i, c.Bytes, c.Lost, c.Retx, m.Bytes, m.Lost, m.Retx)
		}
		if !reflect.DeepEqual(&c.Delay, &m.Delay) {
			t.Errorf("flow %d: Delay recorders differ (chain p95 %.3f, mesh %.3f)", i, c.Delay.P95(), m.Delay.P95())
		}
		if !reflect.DeepEqual(&c.QDelay, &m.QDelay) {
			t.Errorf("flow %d: QDelay recorders differ (chain p95 %.3f, mesh %.3f)", i, c.QDelay.P95(), m.QDelay.P95())
		}
	}
	if chain.Utilization != mesh.Utilization {
		t.Errorf("utilization: chain %v, mesh %v", chain.Utilization, mesh.Utilization)
	}
	if chain.Ledger != mesh.Ledger {
		t.Errorf("ledger: chain %+v, mesh %+v", chain.Ledger, mesh.Ledger)
	}
	if !reflect.DeepEqual(chain.Events, mesh.Events) {
		t.Errorf("events: chain %+v, mesh %+v", chain.Events, mesh.Events)
	}
	if !reflect.DeepEqual(chain.Workloads, mesh.Workloads) {
		t.Errorf("workloads: chain %+v, mesh %+v", chain.Workloads, mesh.Workloads)
	}
}

// TestChainEqualsHandWrittenMesh: a chain is shorthand for the mesh with
// junctions and edges fwd<i>/rev<i>, so writing that mesh out by hand
// must give the same run, packet for packet. The mesh edges carry the
// chain's names because per-edge impairment RNGs are salted with the
// edge name and event annotations print it.
func TestChainEqualsHandWrittenMesh(t *testing.T) {
	t.Run("forward chain, cross traffic, workload, event", func(t *testing.T) {
		links := []LinkSpec{
			{Rate: netem.ConstRate(24e6), Delay: 2 * sim.Millisecond},
			{Rate: netem.ConstRate(12e6), Impair: topo.Impairments{LossRate: 0.002}},
			{Trace: trace.MustNamedCellular("Verizon1")},
		}
		common := Spec{
			Seed: 3, Duration: 8 * sim.Second, Warmup: sim.Second, RTT: 60 * sim.Millisecond,
			Events: []EventSpec{{At: 4 * sim.Second, Kind: EventSetRate, Edge: "fwd1", RateMbps: 6}},
		}
		workload := WorkloadSpec{
			Scheme: "Cubic", Arrival: app.Poisson{PerSec: 6}, Sizes: app.FixedSize{Bytes: 40 << 10},
		}

		chain := common
		chain.Links = links
		chain.Flows = []FlowSpec{{Scheme: "ABC"}, {Scheme: "Cubic", EnterAt: 1, ExitAt: 2}}
		chain.Workloads = []WorkloadSpec{workload}
		chain.Workloads[0].EnterAt = 1

		mesh := common
		mesh.Nodes = []string{"fwd0", "fwd1", "fwd2", "fwd3"}
		for i, ls := range links {
			mesh.Edges = append(mesh.Edges, EdgeSpec{Name: mesh.Nodes[i], From: mesh.Nodes[i], To: mesh.Nodes[i+1], Link: ls})
		}
		mesh.Flows = []FlowSpec{
			{Scheme: "ABC", Path: []string{"fwd0", "fwd1", "fwd2"}},
			{Scheme: "Cubic", Path: []string{"fwd1"}},
		}
		mesh.Workloads = []WorkloadSpec{workload}
		mesh.Workloads[0].Path = []string{"fwd1", "fwd2"}

		cres, _, err := Run(chain)
		if err != nil {
			t.Fatal(err)
		}
		mres, _, err := Run(mesh)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, cres, mres)
		if len(cres.Events) != 1 || cres.Workloads[0].Completed == 0 || cres.Utilization == 0 {
			t.Errorf("scenario did not exercise its clauses: events %d, completed %d, utilization %v",
				len(cres.Events), cres.Workloads[0].Completed, cres.Utilization)
		}
	})

	t.Run("one link each way, forward and reverse flow", func(t *testing.T) {
		down := LinkSpec{Trace: trace.MustNamedCellular("Verizon1"), Delay: 5 * sim.Millisecond}
		up := LinkSpec{Rate: netem.ConstRate(4e6), Delay: 5 * sim.Millisecond}
		common := Spec{Seed: 5, Duration: 8 * sim.Second, Warmup: sim.Second}

		chain := common
		chain.Links, chain.ReverseLinks = []LinkSpec{down}, []LinkSpec{up}
		chain.Flows = []FlowSpec{{Scheme: "ABC"}, {Scheme: "Cubic", Dir: Reverse}}

		mesh := common
		mesh.Nodes = []string{"a", "b"}
		mesh.Edges = []EdgeSpec{
			{Name: "fwd0", From: "a", To: "b", Link: down},
			{Name: "rev0", From: "b", To: "a", Link: up},
		}
		mesh.Flows = []FlowSpec{
			{Scheme: "ABC", Path: []string{"fwd0"}, AckPath: []string{"rev0"}},
			{Scheme: "Cubic", Path: []string{"rev0"}, AckPath: []string{"fwd0"}},
		}

		cres, _, err := Run(chain)
		if err != nil {
			t.Fatal(err)
		}
		mres, _, err := Run(mesh)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, cres, mres)
		// The Result views stay per notation.
		if len(cres.Qdiscs) != 1 || len(cres.ReverseQdiscs) != 1 || cres.EdgeQdiscs != nil {
			t.Errorf("chain views: %d Qdiscs, %d ReverseQdiscs, EdgeQdiscs %v", len(cres.Qdiscs), len(cres.ReverseQdiscs), cres.EdgeQdiscs)
		}
		if len(mres.Qdiscs) != 2 || mres.ReverseQdiscs != nil || len(mres.EdgeQdiscs) != 2 {
			t.Errorf("mesh views: %d Qdiscs, %d ReverseQdiscs, %d EdgeQdiscs", len(mres.Qdiscs), len(mres.ReverseQdiscs), len(mres.EdgeQdiscs))
		}
		if len(cres.Spec.Nodes) != 0 || len(cres.Spec.Links) != 1 {
			t.Errorf("Result.Spec is not the caller's chain spec: %d nodes, %d links", len(cres.Spec.Nodes), len(cres.Spec.Links))
		}
	})
}

// TestAutoQdiscChainMeshAlike: "auto" is one rule on either notation. A
// link only ACKs cross derives its discipline from the flow whose echoes
// it carries — a chain's reverse link exactly as the mesh edge it is
// shorthand for — so the two runs agree packet for packet. The uplink is
// too thin for the ACK stream, so the derived router demotes echoes and
// a droptail there would have run differently.
func TestAutoQdiscChainMeshAlike(t *testing.T) {
	down, up := LinkSpec{Rate: netem.ConstRate(10e6)}, LinkSpec{Rate: netem.ConstRate(0.2e6)}
	common := Spec{Seed: 1, Duration: 3 * sim.Second, Warmup: sim.Second / 2}

	chain := common
	chain.Links, chain.ReverseLinks = []LinkSpec{down}, []LinkSpec{up}
	chain.Flows = []FlowSpec{{Scheme: "ABC"}}

	mesh := common
	mesh.Nodes = []string{"a", "b"}
	mesh.Edges = []EdgeSpec{{Name: "fwd0", From: "a", To: "b", Link: down}, {Name: "rev0", From: "b", To: "a", Link: up}}
	mesh.Flows = []FlowSpec{{Scheme: "ABC", Path: []string{"fwd0"}, AckPath: []string{"rev0"}}}

	cres, _, err := Run(chain)
	if err != nil {
		t.Fatal(err)
	}
	mres, _, err := Run(mesh)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, cres, mres)
	for name, q := range map[string]qdisc.Qdisc{"chain rev0": cres.ReverseQdiscs[0], "mesh rev0": mres.EdgeQdiscs["rev0"]} {
		r, ok := q.(*abc.Router)
		if !ok {
			t.Errorf("%s is %T, want the ABC router derived from the ACK route", name, q)
			continue
		}
		if r.EchoDemoted == 0 {
			t.Errorf("%s demoted no echo", name)
		}
	}
}

// TestShardedChainTiesAckOrigin: on a sharded chain every flow's receiver
// (at its data route's last junction) injects ACKs synchronously into
// its ACK route's first junction, so the partitioner must keep the two
// on one shard — for every flow, not per notation.
func TestShardedChainTiesAckOrigin(t *testing.T) {
	hop := func(mbps float64) LinkSpec {
		return LinkSpec{Rate: netem.ConstRate(mbps * 1e6), Delay: 5 * sim.Millisecond}
	}
	res, _, err := Run(Spec{
		Seed: 1, Duration: 3 * sim.Second, Warmup: sim.Second, Shards: 2,
		Links:        []LinkSpec{hop(12), hop(10)},
		ReverseLinks: []LinkSpec{hop(4), hop(5)},
		Flows: []FlowSpec{
			{Scheme: "ABC"},
			{Scheme: "Cubic", ExitAt: 1},
			{Scheme: "Cubic", Dir: Reverse},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	for f := range res.Flows {
		data, _ := g.RouteOf(f, false)
		ack, _ := g.RouteOf(f, true)
		if len(data) == 0 || len(ack) == 0 {
			t.Fatalf("flow %d: routes %v / %v, want both table-backed", f, data, ack)
		}
		recv, origin := g.Edge(data[len(data)-1]).To, g.Edge(ack[0]).From
		if g.ShardOf(recv.ID) != g.ShardOf(origin.ID) {
			t.Errorf("flow %d: receiver junction %s on shard %d, ACK origin %s on shard %d",
				f, recv.Name, g.ShardOf(recv.ID), origin.Name, g.ShardOf(origin.ID))
		}
		if res.Flows[f].Bytes == 0 {
			t.Errorf("flow %d delivered nothing", f)
		}
	}
	used := map[int]bool{}
	for id := 0; id < g.Edges(); id++ {
		used[g.ShardOf(g.Edge(id).From.ID)] = true
		used[g.ShardOf(g.Edge(id).To.ID)] = true
	}
	if len(used) != 2 {
		t.Errorf("junctions landed on %d shard(s); the tie check is vacuous unless the chain is actually split", len(used))
	}
}

// TestChainNames pins the one spelling of chain names. A chain of 2+1
// links compiles to edges fwd0, fwd1, rev0 between junctions fwd0..fwd2
// and rev0..rev1, and every clause that addresses an edge or a junction
// by name accepts exactly those and rejects the next index with the
// same error a misspelt mesh name gets.
func TestChainNames(t *testing.T) {
	base := func() Spec {
		hop := LinkSpec{Rate: netem.ConstRate(10e6), Delay: 2 * sim.Millisecond}
		return Spec{
			Seed: 1, Duration: sim.Second, Warmup: sim.Second / 2,
			Links: []LinkSpec{hop, hop}, ReverseLinks: []LinkSpec{hop},
			Flows: []FlowSpec{{Scheme: "ABC"}},
		}
	}
	res, _, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	edges := []string{"fwd0", "fwd1", "rev0"}
	if res.Graph.Edges() != len(edges) {
		t.Fatalf("%d edges, want %d", res.Graph.Edges(), len(edges))
	}
	for i, want := range edges {
		if got := res.Graph.Edge(i).Name; got != want {
			t.Errorf("edge %d is %q, want %q", i, got, want)
		}
	}

	clauses := []struct {
		name    string
		good    []string
		bad     string
		wantErr string
		apply   func(spec *Spec, name string)
	}{
		{"EventSpec.Edge", edges, "fwd2", "unknown edge", func(spec *Spec, name string) {
			spec.Events = []EventSpec{{At: sim.Second / 2, Kind: EventLinkDown, Edge: name}}
		}},
		{"BackgroundSpec.Edge", edges, "fwd2", "unknown edge", func(spec *Spec, name string) {
			spec.Background = []BackgroundSpec{{Edge: name, Kind: "const", RateMbps: 1}}
		}},
		// ShardMap pins junctions, of which a chain has one more than links.
		{"ShardMap", []string{"fwd0", "fwd1", "fwd2", "rev0", "rev1"}, "fwd3", "unknown node", func(spec *Spec, name string) {
			spec.Shards, spec.ShardMap = 2, map[string]int{name: 1}
		}},
	}
	for _, c := range clauses {
		for _, name := range c.good {
			spec := base()
			c.apply(&spec, name)
			if _, _, err := Run(spec); err != nil {
				t.Errorf("%s %q rejected: %v", c.name, name, err)
			}
		}
		spec := base()
		c.apply(&spec, c.bad)
		if _, _, err := Run(spec); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s %q: err = %v, want %q", c.name, c.bad, err, c.wantErr)
		}
	}

	// The -metrics edge label.
	reg := obs.NewRegistry()
	EnableMetrics(reg, 200*sim.Millisecond)
	defer EnableMetrics(nil, 0)
	if _, _, err := Run(base()); err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, s := range reg.Snapshot() {
		if rest, ok := strings.CutPrefix(s.Name, `abc_queue_pkts{edge="`); ok {
			labels[strings.TrimSuffix(rest, `"}`)] = true
		}
	}
	if want := map[string]bool{"fwd0": true, "fwd1": true, "rev0": true}; !reflect.DeepEqual(labels, want) {
		t.Errorf("abc_queue_pkts edge labels %v, want %v", labels, want)
	}
}

// TestNotationRejections: each notation's front end rejects the other's
// fields, and the chain-only shape errors keep their messages now that a
// chain is lowered to a mesh instead of compiled on its own.
func TestNotationRejections(t *testing.T) {
	rate := LinkSpec{Rate: netem.ConstRate(10e6)}
	chain := func(mut func(*Spec)) Spec {
		spec := Spec{Seed: 1, Duration: sim.Second, Links: []LinkSpec{rate, rate}, Flows: []FlowSpec{{Scheme: "ABC"}}}
		mut(&spec)
		return spec
	}
	mesh := func(mut func(*Spec)) Spec {
		spec := Spec{
			Seed: 1, Duration: sim.Second,
			Nodes: []string{"a", "b"},
			Edges: []EdgeSpec{{Name: "e", From: "a", To: "b", Link: rate}},
			Flows: []FlowSpec{{Scheme: "ABC", Path: []string{"e"}}},
		}
		mut(&spec)
		return spec
	}
	workload := WorkloadSpec{Scheme: "Cubic", Arrival: app.Poisson{PerSec: 1}, Sizes: app.FixedSize{Bytes: 1000}}
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"wire on a chain link", chain(func(s *Spec) { s.Links[1] = LinkSpec{Kind: "wire", Delay: sim.Millisecond} }), `unknown link kind "wire"`},
		{"Path on a chain flow", chain(func(s *Spec) { s.Flows[0].Path = []string{"fwd0"} }), "flow 0: Path/AckPath route over mesh edges; chain flows use Dir/EnterAt/ExitAt"},
		{"AckPath on a chain flow", chain(func(s *Spec) { s.Flows[0].AckPath = []string{"fwd0"} }), "flow 0: Path/AckPath route over mesh edges"},
		{"Path on a chain workload", chain(func(s *Spec) {
			w := workload
			w.Path = []string{"fwd0"}
			s.Workloads = []WorkloadSpec{w}
		}), "workload 0: Path/AckPath route over mesh edges; chain workloads use Dir/EnterAt/ExitAt"},
		{"no links", chain(func(s *Spec) { s.Links = nil }), "no links in spec"},
		{"no flows", chain(func(s *Spec) { s.Flows = nil }), "no flows in spec"},
		{"EnterAt past the chain", chain(func(s *Spec) { s.Flows[0].EnterAt = 2 }), "flow 0: EnterAt 2 out of range [0, 2)"},
		{"ExitAt past the chain", chain(func(s *Spec) { s.Flows[0].ExitAt = 3 }), "flow 0: ExitAt 3 out of range [1, 2]"},
		{"ExitAt before EnterAt", chain(func(s *Spec) { s.Flows[0].EnterAt, s.Flows[0].ExitAt = 1, 1 }), "ExitAt 1 does not reach past EnterAt 1"},
		{"workload EnterAt past the chain", chain(func(s *Spec) {
			w := workload
			w.EnterAt = 5
			s.Workloads = []WorkloadSpec{w}
		}), "workload 0: EnterAt 5 out of range [0, 2)"},
		{"Reverse without reverse links", chain(func(s *Spec) { s.Flows[0].Dir = Reverse }), "flow 0: no reverse links for its direction"},
		{"Dir on a mesh flow", mesh(func(s *Spec) { s.Flows[0].Dir = Reverse }), "flow 0: Dir/EnterAt/ExitAt are chain fields; mesh flows route via Path/AckPath"},
		{"ExitAt on a mesh workload", mesh(func(s *Spec) {
			w := workload
			w.Path, w.ExitAt = []string{"e"}, 1
			s.Workloads = []WorkloadSpec{w}
		}), "workload 0: Dir/EnterAt/ExitAt are chain fields; mesh workloads route via Path/AckPath"},
		{"chain and mesh together", mesh(func(s *Spec) { s.Links = []LinkSpec{rate} }), "mutually exclusive"},
		{"reverse links and mesh together", mesh(func(s *Spec) { s.ReverseLinks = []LinkSpec{rate} }), "mutually exclusive"},
	} {
		if _, _, err := Run(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
