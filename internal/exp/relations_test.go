package exp

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
)

// relationNumbers is what a relation between two runs compares: every
// number the run measured for its flows, workloads and backgrounds, the
// utilization and the packet books — everything but the labels that
// name edges (Result.Events, Result.RouteChanges), which a relation that
// renames the topology is allowed to move.
func relationNumbers(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "util %v books %+v delayed %d stripped %d\n", res.Utilization, res.Ledger, res.AdvDelayed, res.AdvStripped)
	for i := range res.Flows {
		f := &res.Flows[i]
		fmt.Fprintf(&b, "flow %d: %d B %v Mbit/s delay %v %v %d qdelay %v lost %d retx %d sent %d acked %d\n",
			i, f.Bytes, f.TputMbps, f.Delay.Mean(), f.Delay.P95(), f.Delay.Count(), f.QDelay.Mean(),
			f.Lost, f.Retx, f.Endpoint.SentPackets, f.Endpoint.AckedPackets)
		if f.Tput != nil {
			fmt.Fprintf(&b, "  tput %v\n", f.Tput.Values)
		}
	}
	for i := range res.Workloads {
		w := &res.Workloads[i]
		fmt.Fprintf(&b, "workload %d: %d/%d %d B fct %v %v\n", i, w.Completed, w.Spawned, w.Bytes, w.FCT.Mean(), w.FCT.P95())
	}
	for i := range res.Backgrounds {
		fmt.Fprintf(&b, "background %d: %+v\n", i, res.Backgrounds[i])
	}
	if res.QueueDelayTS != nil {
		fmt.Fprintf(&b, "qdelay %v\n", res.QueueDelayTS.Values)
	}
	return b.String()
}

// splitWire returns spec with its first positive-delay wire edge that no
// timeline event targets or abandons replaced by two wires through a new
// junction, d/3 and the rest, renamed in every path that crossed it; ok
// is false when the spec has no such wire. A wire that a reroute
// abandons would not do: a reroute drops what is in flight at the first
// junction off the new route, and the split adds one.
func splitWire(spec Spec) (out Spec, ok bool) {
	touched := func(name string) bool {
		for _, ev := range spec.Events {
			if ev.Edge == name {
				return true
			}
			if ev.Kind == EventReroute {
				old := spec.Flows[ev.Flow].Path
				if ev.Ack {
					old = spec.Flows[ev.Flow].AckPath
				}
				if slices.Contains(old, name) {
					return true
				}
			}
		}
		return false
	}
	i := slices.IndexFunc(spec.Edges, func(e EdgeSpec) bool {
		return e.Link.wire() && e.Link.Delay > 2 && e.Link.Impair == (topo.Impairments{}) && !touched(e.Name)
	})
	if i < 0 {
		return spec, false
	}
	e := spec.Edges[i]
	a, b, mid := e, e, e.Name+"-mid"
	a.Name, a.To, a.Link.Delay = e.Name+"-a", mid, e.Link.Delay/3
	b.Name, b.From, b.Link.Delay = e.Name+"-b", mid, e.Link.Delay-e.Link.Delay/3
	out = spec
	out.Nodes = append(slices.Clone(spec.Nodes), mid)
	out.Edges = append(append(slices.Clone(spec.Edges[:i]), a, b), spec.Edges[i+1:]...)
	split := func(path []string) []string {
		var p []string
		for _, name := range path {
			if name == e.Name {
				p = append(p, a.Name, b.Name)
			} else {
				p = append(p, name)
			}
		}
		return p
	}
	out.Flows = slices.Clone(spec.Flows)
	for f := range out.Flows {
		out.Flows[f].Path, out.Flows[f].AckPath = split(out.Flows[f].Path), split(out.Flows[f].AckPath)
	}
	out.Events = slices.Clone(spec.Events)
	for k := range out.Events {
		out.Events[k].Path = split(out.Events[k].Path)
	}
	return out, true
}

// idlePair returns spec with a node pair and a 3 ms wire between them
// that no flow uses, all three prepended, so every node and edge id
// moves.
func idlePair(spec Spec) Spec {
	out := spec
	out.Nodes = append([]string{"idle-a", "idle-b"}, spec.Nodes...)
	out.Edges = append([]EdgeSpec{{Name: "idle", From: "idle-a", To: "idle-b",
		Link: LinkSpec{Kind: "wire", Delay: 3 * sim.Millisecond}}}, spec.Edges...)
	return out
}

// lossy returns spec with 2 % loss and up to 1 ms of jitter on its first
// wire edge (its first edge when it has none): the relations then also
// cover a stretch that an impairment ends, and an edge's random stream.
func lossy(spec Spec) Spec {
	out := spec
	out.Edges = slices.Clone(spec.Edges)
	i := max(slices.IndexFunc(out.Edges, func(e EdgeSpec) bool { return e.Link.wire() }), 0)
	out.Edges[i].Link.Impair = topo.Impairments{LossRate: 0.02, Jitter: sim.Millisecond}
	return out
}

// propagationFloor hooks every declared flow's receiver to record the
// first data arrival stamped sooner than the packet's departure plus the
// summed propagation delay of the flow's data route and its access tail
// plus the packet's serialisation at every rate link of the route
// (the delay floor). A receiver that takes packets ahead of their
// arrival must stamp the arrival instant, not the instant the packet
// entered its last stretch, and a lazily served link must hand a packet
// on when its transmission ends, not when it starts; this is the check
// that tells them apart. It returns the record, empty while every
// arrival keeps the floor.
func propagationFloor(c *compiled) *string {
	early := new(string)
	for i, f := range c.flows {
		i := i // the hook below reports it
		fs := &c.spec.Flows[i]
		rtt := fs.RTT
		if rtt <= 0 {
			rtt = c.spec.RTT
		}
		floor := rtt / 2
		var rates []float64
		for _, e := range c.p.routes[i].data {
			ls := c.p.edges[e].link
			floor += ls.Delay
			if ls.model() == "rate" {
				rates = append(rates, ls.Rate)
			}
		}
		on := f.recv.OnData
		f.recv.OnData = func(now sim.Time, p *packet.Packet) {
			least := floor
			for _, r := range rates {
				least += sim.FromSeconds(float64(p.Size*8) / r)
			}
			if now < p.SentAt+least && *early == "" {
				*early = fmt.Sprintf("flow %d: packet %d sent at %v arrived at %v, under its route's delay floor %v",
					i, p.Seq, p.SentAt, now, least)
			}
			on(now, p)
		}
	}
	return early
}

// lazyTies names the mesh examples whose static run, its rate links
// served lazily, gives numbers other than its hop-by-hop twin's, each
// with the first tie where the two runs part. Each is a departure and
// an arrival at one instant at a lazy link: the lazy link starts the
// next transmission first, the twin orders the two as they were
// scheduled. With the eventful path forced, each static run gives its
// twin's numbers.
var lazyTies = map[string]string{
	"mesh":       "edge inA at 66.5 ms: a packet of flow 0 arrives as the transmission in progress ends",
	"mesh+lossy": "edge inB at 68 ms: a packet of flow 1 arrives as the transmission in progress ends",
}

// TestMeshRelations checks, on every mesh example and on its lossy
// variant, relations between runs that must hold whatever the right
// numbers are:
//   - splitting a wire of delay d into d/3 and the rest through a new
//     junction changes no number;
//   - adding an idle node pair and wire changes no number and no event;
//   - a traced run gives the same numbers and executes the same events
//     as an untraced one: wire runs do not depend on tracing;
//   - a static run (whose graph crosses its bare stretches as wire runs)
//     with every link on the eventful path gives the numbers of its
//     hop-by-hop twin, the same spec with an inert timeline event, which
//     keeps the graph from being static, and executes no more events;
//     and splitting a wire of the twin changes no number either, so the
//     wire split holds where the tail wire folds the ACK's return alone
//     and where a wire run ending at the receiver does
//     (netem.Wire.Carry);
//   - the static run as compiled, its eligible rate links served lazily,
//     gives the twin's numbers too, unless lazyTies names it; then it
//     must differ;
//   - in every one of those runs, no data packet reaches its receiver
//     sooner than its departure plus its route's summed propagation
//     delay and serialisation (propagationFloor).
func TestMeshRelations(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{}
	for _, path := range paths {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(sc.Spec.Nodes) > 0 {
			specs[sc.Name], specs[sc.Name+"+lossy"] = sc.Spec, lossy(sc.Spec)
		}
	}
	if len(specs) < 10 {
		t.Fatalf("found %d mesh examples and variants, want at least 10", len(specs))
	}
	for name, spec := range specs {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// run compiles spec with build, traced into rec (nil =
			// untraced), and runs it.
			run := func(build func(Spec, *obs.Recorder) (*compiled, error), rec *obs.Recorder, spec Spec) (string, uint64) {
				t.Helper()
				c, err := build(spec, rec)
				if err != nil {
					t.Fatal(err)
				}
				early := propagationFloor(c)
				res, _, err := c.run(nil)
				if err != nil {
					t.Fatal(err)
				}
				if *early != "" {
					t.Error(*early)
				}
				return relationNumbers(res), res.Graph.S.Executed()
			}
			want, events := run(compile, nil, spec)
			if split, ok := splitWire(spec); ok {
				if got, _ := run(compile, nil, split); got != want {
					t.Errorf("splitting a wire moved numbers:\n got %s\nwant %s", got, want)
				}
			}
			if got, n := run(compile, nil, idlePair(spec)); got != want || n != events {
				t.Errorf("an idle node pair moved numbers or events (%d, want %d):\n got %s\nwant %s", n, events, got, want)
			}
			rec := obs.NewRecorder(1<<12, obs.CatAll)
			if got, n := run(compile, rec, spec); got != want || n != events {
				t.Errorf("tracing moved numbers or events (%d, want %d):\n got %s\nwant %s", n, events, got, want)
			}
			if rec.Total() == 0 {
				t.Error("the traced run recorded nothing")
			}
			if len(spec.Events) == 0 && spec.Routing == nil {
				twin := spec
				twin.Events = []EventSpec{{At: sim.Second, Kind: EventLinkUp, Edge: spec.Edges[0].Name}}
				hop, n := run(compile, nil, twin)
				static, m := run(compileEventful, nil, spec)
				if static != hop {
					t.Errorf("wire runs moved numbers against hop-by-hop forwarding:\n got %s\nwant %s", static, hop)
				}
				if n < m || n < events {
					t.Errorf("the static run executed %d events (%d lazily), its hop-by-hop twin %d", m, events, n)
				}
				switch tie, named := lazyTies[name]; {
				case !named && want != hop:
					t.Errorf("lazy link service moved numbers against hop-by-hop forwarding:\n got %s\nwant %s", want, hop)
				case named && want == hop:
					t.Errorf("lazyTies names the tie %q, but the lazy run gives its twin's numbers", tie)
				}
				if split, ok := splitWire(twin); ok {
					if got, _ := run(compile, nil, split); got != hop {
						t.Errorf("splitting a wire of the hop-by-hop twin moved numbers:\n got %s\nwant %s", got, hop)
					}
				}
			}
		})
	}
}
