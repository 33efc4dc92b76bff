package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"

	"abc/internal/app"
	"abc/internal/exp"
	"abc/internal/netem"
	"abc/internal/sim"
	"abc/internal/trace"
)

// A workload is one closed, single-process set of inputs: a list of
// exp.Specs run back to back, fixed work per rep. The simulator sees
// only the generated specs; everything random about them comes from
// the seed handed to build.
//
// Every builder keeps the *amount* of work independent of the seed (the
// traces are rescaled to one mean rate, the mesh rates to one sum, the
// on/off schedule to a whole number of cycles): the seed changes which
// inputs the simulator sees, not how many packets it has to move, so
// runs at different seeds stay comparable.
type workload struct {
	name string
	why  string
	// build generates the inputs. inputs is a text listing of every
	// generated parameter; its hash is the manifest's spec hash.
	build func(seed int64, smoke bool) (specs []exp.Spec, inputs string)
	// static workloads have no reroutes and no spawned flows, so any
	// unrouted drop is a wiring bug.
	static bool
	// twin names the workload whose result digest must equal this one's.
	twin string
}

var workloads = []workload{
	{
		name:   "cellular_sweep",
		why:    "Table 1 / Fig. 9 grid, one flow per trace link: every qdisc, abc, explicit and cc algorithm does the work, topo almost none",
		build:  cellularSweep,
		static: true,
	},
	{
		name:   "mesh_seq",
		why:    "16 bottlenecks, 8 forwarding hops per packet, deep event heap: sim and topo do the work, qdisc and cc little",
		build:  func(seed int64, smoke bool) ([]exp.Spec, string) { return mesh(seed, smoke, 1) },
		static: true,
	},
	{
		name:   "mesh_shard2",
		why:    "mesh_seq's spec at Shards 2: isolates the sim.Coordinator windows, mailboxes and barrier; same result digest",
		build:  func(seed int64, smoke bool) ([]exp.Spec, string) { return mesh(seed, smoke, 2) },
		static: true,
		twin:   "mesh_seq",
	},
	{
		name:  "flow_churn",
		why:   "two open-loop arrival processes of short flows: route install and teardown, endpoint construction, packet free-list and GC",
		build: flowChurn,
	},
	{
		name:   "hybrid_bg",
		why:    "fixed ABC foreground under a 10^6-user on/off fluid aggregate: qdisc.Background coupled into link service and the ABC router",
		build:  hybridBG,
		static: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func specHash(inputs string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(inputs)))[:16]
}

// rotate returns tr with every delivery opportunity moved shift later,
// wrapping at the trace's period: the same opportunities, met by a flow
// in a different order.
func rotate(tr *trace.Trace, shift sim.Time) *trace.Trace {
	ops := make([]sim.Time, 0, tr.Opportunities())
	for t := tr.NextOpportunity(-1); t < tr.Period(); t = tr.NextOpportunity(t) {
		for k := tr.CountIn(t, t+1); k > 0; k-- {
			ops = append(ops, (t+shift)%tr.Period())
		}
	}
	out, err := trace.New(tr.Name, ops, tr.Period())
	if err != nil {
		panic(err) // the opportunities of a valid trace, kept inside its period
	}
	return out
}

// cellularSweep is the Table 1 / Fig. 9 grid: every scheme of
// exp.Schemes over three synthetic cellular traces, one backlogged flow
// over one trace link, RTT 100 ms, one exp.Run per cell. The traces'
// shapes are fixed (one per carrier family, parameters as in
// trace.NamedCellular); the seed rotates each by a random offset and
// seeds the simulator's RNG. A freshly drawn shape per seed would move
// the packet count by +-6 % from seed to seed, which is more than the
// timing noise the benchmark has to resolve.
func cellularSweep(seed int64, smoke bool) ([]exp.Spec, string) {
	dur := 20 * sim.Second
	if smoke {
		dur = 1 * sim.Second
	}
	families := []struct {
		name string
		p    trace.CellParams
	}{
		{"verizon", trace.CellParams{Seed: 11, MeanMbps: 9, Sigma: 0.22, OutageProb: 0.015}},
		{"tmobile", trace.CellParams{Seed: 21, MeanMbps: 11, Sigma: 0.20, OutageProb: 0.02}},
		{"att", trace.CellParams{Seed: 31, MeanMbps: 12, Sigma: 0.16, OutageProb: 0.012}},
	}
	rng := rand.New(rand.NewSource(seed))
	var in strings.Builder
	var specs []exp.Spec
	for _, f := range families {
		f.p.Duration = dur
		shift := sim.Time(rng.Int63n(int64(dur)))
		tr := rotate(trace.Cellular(f.name, f.p), shift)
		fmt.Fprintf(&in, "trace %s shift=%d ops=%d avg=%.0f\n", f.name, shift, tr.Opportunities(), tr.AvgRateBps())
		for _, scheme := range exp.Schemes {
			specs = append(specs, exp.Spec{
				Seed:     seed,
				Duration: dur,
				Warmup:   dur / 10,
				RTT:      100 * sim.Millisecond,
				Links:    []exp.LinkSpec{{Trace: tr}},
				Flows:    []exp.FlowSpec{{Scheme: scheme}},
			})
			fmt.Fprintf(&in, "cell %s %s seed=%d dur=%v rtt=100ms\n", f.name, scheme, seed, dur)
		}
	}
	return specs, in.String()
}

// meshBottlenecks is the ring size of the mesh workloads.
const meshBottlenecks = 16

// mesh is a ring of 16 pairs of junctions, a pair being one point of
// presence. Pair k is joined by a rate bottleneck (bot<k>) and by a
// parallel zero-delay express wire (exp<k>); hop<k> is the 8 to 10 ms
// wire from pair k to pair k+1. Flow k crosses its own bottleneck and
// then seven wire hops a quarter of the way round the ring, so no two
// flows share a queue (the result is the same at any shard count) yet
// six of the sixteen data paths cross a two-way cut. The partitioner
// never separates a zero-delay pair, so every cut edge is a hop and the
// coordinator's lookahead window is 8 ms. Rates and delays are
// non-round so event timestamps do not line up by construction.
func mesh(seed int64, smoke bool, shards int) ([]exp.Spec, string) {
	dur := 16 * sim.Second
	if smoke {
		dur = 1 * sim.Second
	}
	const n = meshBottlenecks
	rng := rand.New(rand.NewSource(seed))
	// Per-bottleneck rates drawn around 12 Mbit/s and rescaled so they
	// always sum to n x 12 Mbit/s: same packet count at every seed.
	rates := make([]float64, n)
	var sum float64
	for k := range rates {
		rates[k] = 0.7 + 0.6*rng.Float64()
		sum += rates[k]
	}
	for k := range rates {
		rates[k] *= 12.137e6 * n / sum
	}
	spec := exp.Spec{
		Seed:     seed,
		Duration: dur,
		Warmup:   dur / 4,
		RTT:      30 * sim.Millisecond,
		Shards:   shards,
	}
	var in strings.Builder
	fmt.Fprintf(&in, "mesh n=%d dur=%v rtt=30ms\n", n, dur)
	node := func(i int) string { return fmt.Sprintf("j%d", i%(2*n)) }
	for j := 0; j < 2*n; j++ {
		spec.Nodes = append(spec.Nodes, node(j))
	}
	for k := 0; k < n; k++ {
		botDelay := sim.Time(4100+rng.Intn(900))*sim.Microsecond + sim.Time(rng.Intn(1000))
		hopDelay := sim.Time(8100+rng.Intn(1900))*sim.Microsecond + sim.Time(rng.Intn(1000))
		fmt.Fprintf(&in, "pair %d rate=%.0f bot=%d hop=%d\n", k, rates[k], botDelay, hopDelay)
		spec.Edges = append(spec.Edges,
			exp.EdgeSpec{Name: fmt.Sprintf("bot%d", k), From: node(2 * k), To: node(2*k + 1),
				Link: exp.LinkSpec{Rate: netem.ConstRate(rates[k]), Qdisc: exp.QdiscSpec{Kind: "auto"}, Delay: botDelay}},
			exp.EdgeSpec{Name: fmt.Sprintf("exp%d", k), From: node(2 * k), To: node(2*k + 1),
				Link: exp.LinkSpec{Kind: "wire"}},
			exp.EdgeSpec{Name: fmt.Sprintf("hop%d", k), From: node(2*k + 1), To: node(2*k + 2),
				Link: exp.LinkSpec{Kind: "wire", Delay: hopDelay}},
		)
	}
	for k := 0; k < n; k++ {
		scheme := "ABC"
		if k%2 == 1 {
			scheme = "Cubic"
		}
		path := []string{fmt.Sprintf("bot%d", k), fmt.Sprintf("hop%d", k)}
		for h := 1; h <= 3; h++ {
			path = append(path, fmt.Sprintf("exp%d", (k+h)%n), fmt.Sprintf("hop%d", (k+h)%n))
		}
		spec.Flows = append(spec.Flows, exp.FlowSpec{Scheme: scheme, Path: path})
	}
	return []exp.Spec{spec}, in.String()
}

// flowChurn is one 40 Mbit/s DropTail link fed by two open-loop Poisson
// arrival processes of 20 KiB flows (Cubic at 100/s, ABC at 77/s, about
// 72 % load). The arrival gaps come from the simulation RNG, i.e. from
// Spec.Seed.
func flowChurn(seed int64, smoke bool) ([]exp.Spec, string) {
	dur := 120 * sim.Second
	if smoke {
		dur = 2 * sim.Second
	}
	spec := exp.Spec{
		Seed:     seed,
		Duration: dur,
		Warmup:   dur / 10,
		Links: []exp.LinkSpec{{
			Kind:  "rate",
			Rate:  netem.ConstRate(40e6),
			Qdisc: exp.QdiscSpec{Kind: "droptail", Buffer: 250},
		}},
		Workloads: []exp.WorkloadSpec{
			{Scheme: "Cubic", Arrival: app.Poisson{PerSec: 100}, Sizes: app.FixedSize{Bytes: 20 * 1024}},
			{Scheme: "ABC", Arrival: app.Poisson{PerSec: 77}, Sizes: app.FixedSize{Bytes: 20 * 1024}},
		},
	}
	in := fmt.Sprintf("churn seed=%d dur=%v rate=40e6 droptail/250 cubic=poisson(100/s) abc=poisson(77/s) size=20KiB\n", seed, dur)
	return []exp.Spec{spec}, in
}

// hybridBG is one 120 Mbit/s link with an ABC router, two backlogged ABC
// flows and a million-user on/off fluid aggregate offering 60 Mbit/s
// half of the time, three whole 10 s on/off cycles per run. A rep is four
// such runs, each with its own pair of flow RTTs (95 to 105 ms, drawn by
// the seed) and its own simulator seed: packet timing is chaotic in the
// RTT, and how many pooled packets a garbage collection frees, so how
// many are allocated again, moved by 20 % from seed to seed when a rep
// was a single run.
func hybridBG(seed int64, smoke bool) ([]exp.Spec, string) {
	dur := 30 * sim.Second
	if smoke {
		dur = 2 * sim.Second
	}
	rng := rand.New(rand.NewSource(seed))
	half := dur / 6
	rtt := func() sim.Time {
		return sim.Time(95+rng.Intn(10))*sim.Millisecond + sim.Time(rng.Intn(1000))*sim.Microsecond
	}
	var in strings.Builder
	var specs []exp.Spec
	for i := int64(0); i < 4; i++ {
		rtt0, rtt1 := rtt(), rtt()
		specs = append(specs, exp.Spec{
			Seed:     seed*4 + i,
			Duration: dur,
			Warmup:   dur / 10,
			Links: []exp.LinkSpec{{
				Rate:  netem.ConstRate(120e6),
				Qdisc: exp.QdiscSpec{Kind: "abc", Buffer: 500},
			}},
			Flows: []exp.FlowSpec{{Scheme: "ABC", RTT: rtt0}, {Scheme: "ABC", RTT: rtt1}},
			Background: []exp.BackgroundSpec{{
				Edge: "fwd0", Kind: "onoff", Flows: 1_000_000, RateMbps: 60, On: half, Off: half,
			}},
		})
		fmt.Fprintf(&in, "hybrid %d dur=%v rate=120e6 abc/500 rtt=%v,%v onoff users=1e6 60Mbit/s on=off=%v\n", i, dur, rtt0, rtt1, half)
	}
	return specs, in.String()
}
