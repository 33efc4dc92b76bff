// Wiring: the stage that turns compiled edges and resolved routes into
// live components — the link model and discipline behind each edge, and
// each flow's algorithm, endpoint and receiver with its two routes
// installed.
package exp

import (
	"fmt"

	"abc/internal/cc"
	"abc/internal/metrics"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/wifi"
)

// build resolves the spec through the qdisc registry, which rejects an
// ABCConfig the kind cannot honour. scheme is the deriving scheme for
// "auto" kinds ("" falls back to droptail).
func (q QdiscSpec) build(scheme string, s *sim.Simulator) (qdisc.Qdisc, error) {
	bs := qdisc.BuildSpec{Kind: q.Kind, Buffer: q.Buffer, Rand: s.Rand()}
	if bs.Kind == "auto" || bs.Kind == "" {
		bs.Kind = cc.QdiscFor(scheme)
	}
	if q.ABCConfig != nil { // a nil *RouterConfig would be a non-nil Config
		bs.Config = q.ABCConfig
	}
	return qdisc.Build(bs)
}

// estWindow is the smoothing window of a Wi-Fi edge's §4.1 link-rate
// estimator.
const estWindow = 40 * sim.Millisecond

// model returns the link model a spec names: its Kind, else the one
// implied by whichever of Trace/Rate/Wifi is set ("" when none is).
func (ls *LinkSpec) model() string {
	switch {
	case ls.Kind != "":
		return ls.Kind
	case ls.Trace != nil:
		return "trace"
	case ls.Rate != 0:
		return "rate"
	case ls.Wifi != nil:
		return "wifi"
	}
	return ""
}

// linkFactory returns the topo.LinkFactory for one link spec.
func linkFactory(s *sim.Simulator, ls *LinkSpec, qd qdisc.Qdisc) (topo.LinkFactory, error) {
	kind := ls.model()
	if kind == "" {
		return nil, fmt.Errorf("exp: link has neither trace, rate nor wifi")
	}
	switch kind {
	case "trace":
		if ls.Trace == nil {
			return nil, fmt.Errorf("exp: link kind %q without a trace", kind)
		}
		return func(dst packet.Node) (topo.Link, error) {
			l := netem.NewTraceLink(s, ls.Trace, qd, dst)
			l.Lookahead = ls.Lookahead
			return l, nil
		}, nil
	case "rate":
		return func(dst packet.Node) (topo.Link, error) {
			return netem.NewRateLink(s, ls.Rate, qd, dst), nil
		}, nil
	case "wifi":
		cfg := ls.wifiConfig()
		return func(dst packet.Node) (topo.Link, error) {
			var est *wifi.Estimator
			if ls.Wifi != nil && ls.Wifi.Estimate {
				est = wifi.NewEstimator(cfg.MaxBatch, packet.MTU, estWindow)
			}
			return wifi.NewLink(s, cfg, qd, dst, est), nil
		}, nil
	}
	return nil, fmt.Errorf("exp: unknown link kind %q", kind)
}

// wifiConfig is the AP a "wifi" link models: the testbed's, at the
// spec's MCS.
func (ls *LinkSpec) wifiConfig() wifi.LinkConfig {
	cfg := wifi.DefaultLinkConfig()
	if ls.Wifi != nil {
		cfg.MCS = ls.Wifi.MCS
	}
	return cfg
}

// capacityFn returns a capacity sampler (bits/sec) for a link spec and
// the link built from it, used by the queue-delay time series. A rate
// link is read live, so a set_rate event moves the sampler with it.
func capacityFn(ls *LinkSpec, l topo.Link) func(now sim.Time) float64 {
	switch ls.model() {
	case "trace":
		tr := ls.Trace
		return func(now sim.Time) float64 { return tr.CapacityBps(now, 100*sim.Millisecond) }
	case "rate":
		return l.(*netem.RateLink).CapacityBps
	case "wifi":
		cfg := ls.wifiConfig()
		return func(now sim.Time) float64 { return wifi.TrueCapacityBps(cfg, now) }
	}
	return func(sim.Time) float64 { return 0 }
}

// flowRoute is one flow's resolved data and ACK edge sequences over the
// topology graph.
type flowRoute struct{ data, ack []int }

// dir returns the route of one direction.
func (r flowRoute) dir(ack bool) []int {
	if ack {
		return r.ack
	}
	return r.data
}

// attachFlow puts one flow on the graph in f's storage: the endpoint
// (Init) with the flow's tally, which draws its packets from the graph's
// arena, the receiver (Reset, which keeps its OnData hook), and the two
// routes between them, each ending in an rtt/2 access tail. It
// schedules nothing; the caller sets the source and the receiver's
// OnData hook and starts the endpoint. The storage is fresh for a
// declared flow and a drained flow's for a spawned one (spawned).
func attachFlow(g *topo.Graph, id int, alg cc.Algorithm, route flowRoute, rtt sim.Time, f flowEnds) error {
	ep, recv := f.ep, f.recv
	ep.Init(g.S, id, nil, alg)
	ep.Tally.UseArena(g.Arena())
	if r := g.Recorder(); r != nil {
		ep.SetObs(r, int32(id))
	}
	ackEntry, err := g.RouteFlow(id, true, route.ack, rtt/2, ep)
	if err != nil {
		return err
	}
	recv.Reset(g.S, id, ackEntry)
	dataEntry, err := g.RouteFlow(id, false, route.data, rtt/2, recv)
	if err != nil {
		return err
	}
	ep.Out = dataEntry
	return nil
}

// dualWindow is a scheme whose two windows the harness samples beside
// its throughput (abc.Sender: the accel-brake and coexistence windows).
type dualWindow interface {
	WABC() float64
	WCubic() float64
}

// wireFlows constructs every declared flow's algorithm, attaches the flow
// (attachFlow) and hangs the per-flow metrics hooks on its receiver. By
// the time it runs, a flow is just a pair of edge sequences. A receiver
// writes only its own flow's recorders; poolDelays builds the run-wide
// ones from them after the run.
func (c *compiled) wireFlows() error {
	g, spec, res, routes := c.g, c.spec, c.res, c.p.routes
	res.Flows = make([]FlowResult, len(spec.Flows))
	for i := range spec.Flows {
		fs := &spec.Flows[i]
		alg, err := cc.New(fs.Scheme)
		if err != nil {
			return err
		}
		switch fs.Misbehave {
		case "":
		case "greedy":
			alg = cc.NewGreedy(alg)
		default:
			return fmt.Errorf("exp: flow %d: unknown Misbehave %q (recognized: \"greedy\")", i, fs.Misbehave)
		}
		fr := &res.Flows[i]
		fr.Scheme = fs.Scheme
		fr.Algorithm = alg

		flowRTT := fs.RTT
		if flowRTT <= 0 {
			flowRTT = spec.RTT
		}
		f := flowEnds{new(cc.Endpoint), new(netem.Receiver)}
		if err := attachFlow(g, i, alg, routes[i], flowRTT, f); err != nil {
			return err
		}
		c.flows = append(c.flows, f)
		ep, recv := f.ep, f.recv
		epSim := ep.S
		ep.Src = fs.Source.source()
		if fs.App != nil {
			a := buildApp(epSim, ep, fs.App, spec.Warmup)
			fr.App = a
			epSim.At(fs.Start, func() { a.Start(epSim.Now()) })
		}
		fr.Endpoint = ep
		start, warm := fs.Start, spec.Warmup
		recv.OnData = func(now sim.Time, p *packet.Packet) {
			if now < warm || now < start {
				return
			}
			fr.Bytes += int64(p.Size)
			fr.Delay.Add(now - p.SentAt)
			fr.QDelay.Add(p.QueueDelay)
		}

		epSim.At(fs.Start, ep.Start)
		if fs.Stop > 0 {
			epSim.At(fs.Stop, ep.Stop)
		}
		if spec.Sample > 0 {
			counter := &metrics.RateCounter{}
			prev := recv.OnData
			recv.OnData = func(now sim.Time, p *packet.Packet) {
				counter.Add(now, int(p.Size))
				prev(now, p)
			}
			fr.Tput = c.sampled(func(now sim.Time) float64 {
				return counter.SampleBps(now) / 1e6
			})
			if w, ok := alg.(dualWindow); ok {
				fr.WABC = c.sampled(func(sim.Time) float64 { return w.WABC() })
				fr.WCubic = c.sampled(func(sim.Time) float64 { return w.WCubic() })
			}
		}
	}
	return nil
}
