// The run pipeline: Run takes a Spec of either notation through its
// front end, the compiler, wiring, the clock and measurement. Each stage
// has a file of its own (see the package comment); this one holds the
// driver and the run + measure stage — one sim.Coordinator.Run for every
// spec, with everything that watches it hung on the coordinator's
// barrier hook.
package exp

import (
	"fmt"
	"slices"

	"abc/internal/metrics"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sched"
	"abc/internal/sim"
	"abc/internal/topo"
)

// Run executes the scenario and returns its result along with the pooled
// per-packet delay recorder used for the paper's delay metrics.
func Run(spec Spec) (*Result, *metrics.DelayRecorder, error) {
	if spec.Duration <= 0 {
		spec.Duration = 60 * sim.Second
	}
	if spec.RTT <= 0 {
		spec.RTT = 100 * sim.Millisecond
	}
	if spec.Warmup <= 0 {
		spec.Warmup = 4 * sim.Second
	}
	// Misconfigurations that used to no-op silently are Spec errors: a
	// probe that never fires, a negative sampling period and a negative
	// shard count are all wiring bugs, not requests for "off".
	if spec.Sample < 0 {
		return nil, nil, fmt.Errorf("exp: negative Sample %v", spec.Sample)
	}
	if spec.Probe != nil && spec.Sample <= 0 {
		return nil, nil, fmt.Errorf("exp: Probe set without Sample; the probe would never fire (set Sample to the probe period)")
	}
	if spec.Shards < 0 {
		return nil, nil, fmt.Errorf("exp: negative Shards %d", spec.Shards)
	}
	if err := validateRouting(&spec); err != nil {
		return nil, nil, err
	}

	// Front end: either notation becomes a plan.
	var p *plan
	var err error
	if len(spec.Nodes) > 0 || len(spec.Edges) > 0 {
		p, err = meshPlan(&spec)
	} else {
		p, err = lowerChain(&spec)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(spec.Flows) == 0 && len(spec.Workloads) == 0 {
		return nil, nil, fmt.Errorf("exp: no flows in spec")
	}

	// Compile: the graph over its coordinator (one shard unless Shards
	// asks for more), its edges and their disciplines.
	res := &Result{Spec: spec, adv: newAdvCollector(&spec, p)}
	g, err := newGraph(&spec, p)
	if err != nil {
		return nil, nil, err
	}
	res.Graph = g
	// The flight recorder goes on before any edge exists: AddEdge wires
	// links as they appear.
	if r := traceRec.Load(); r != nil {
		g.SetRecorder(r)
	}
	if err := p.build(g, &spec, res); err != nil {
		return nil, nil, err
	}

	// Wire: flows, arrival processes, the event timeline, fluid
	// backgrounds, route computation.
	if err := wireFlows(g, &spec, res, p.routes); err != nil {
		return nil, nil, err
	}
	runners, err := startWorkloads(g, &spec, res, p.wroutes)
	if err != nil {
		return nil, nil, err
	}
	if err := scheduleEvents(g, &spec, res, p.edgeID); err != nil {
		return nil, nil, err
	}
	if err := startBackgrounds(g, &spec, res, p.edgeID); err != nil {
		return nil, nil, err
	}
	if err := startRouting(g, &spec, res); err != nil {
		return nil, nil, err
	}

	// Run and measure.
	pooled := runAndMeasure(g, &spec, res, p)
	if err := finishWorkloads(runners); err != nil {
		return nil, nil, err
	}
	tightestTraceUtilization(&spec, res, p)
	return res, pooled, nil
}

// tightestTraceUtilization sets res.Utilization against the tightest
// trace bottleneck over the measurement window (the paper reports
// utilization of the emulated cell link): of the candidate edges that
// have a trace — a chain's forward links, every edge of a mesh — the one
// delivering the fewest bytes between Warmup and Duration is the
// reference, and only flows and workloads whose data route crosses it
// count as delivered bytes.
func tightestTraceUtilization(spec *Spec, res *Result, p *plan) {
	candidates := p.edges
	if p.links > 0 {
		candidates = p.edges[:p.links]
	}
	var minCapBytes int64 = -1
	minIdx := -1
	for i := range candidates {
		tr := candidates[i].link.Trace
		if tr == nil {
			continue
		}
		capBytes := tr.CountIn(spec.Warmup, spec.Duration) * packet.MTU
		if minCapBytes < 0 || capBytes < minCapBytes {
			minCapBytes = capBytes
			minIdx = i
		}
	}
	if minCapBytes <= 0 {
		return
	}
	var delivered int64
	for f := range res.Flows {
		if slices.Contains(p.routes[f].data, minIdx) {
			delivered += res.Flows[f].Bytes
		}
	}
	for w := range res.Workloads {
		if slices.Contains(p.wroutes[w].data, minIdx) {
			delivered += res.Workloads[w].Bytes
		}
	}
	res.Utilization = metrics.Utilization(delivered, minCapBytes)
}

// sampledSeries is one time series of the run with the reader that
// produces its next value.
type sampledSeries struct {
	ts   *metrics.Timeseries
	read func(now sim.Time) float64
}

// sampled adds a time series that the run's observer (runAndMeasure)
// fills from read every Spec.Sample.
func (r *Result) sampled(read func(now sim.Time) float64) *metrics.Timeseries {
	ts := &metrics.Timeseries{Period: r.Spec.Sample}
	r.series = append(r.series, sampledSeries{ts, read})
	return ts
}

// runAndMeasure attaches the scenario-wide time series, runs the
// coordinator to spec.Duration, finalizes the per-flow counters and
// returns the pooled delay recorder. The standing-queue-delay series
// watches the scenario's leading bottleneck (an all-wire mesh has none).
//
// Everything that watches the run — the time series in registration
// order, then Spec.Probe, then the -metrics sampler — is a reader called
// at coordinator barriers (sim.Coordinator.Every): at a sample instant
// all shards have executed what lies strictly before it, that instant's
// timeline events have applied, and none of its simulator events has
// run. No observer is a simulator event, so a run executes the same
// events whether or not anything watches it.
func runAndMeasure(g *topo.Graph, spec *Spec, res *Result, p *plan) *metrics.DelayRecorder {
	c := g.Coordinator()
	if spec.Sample > 0 {
		if first := slices.IndexFunc(res.edgeQ, func(q qdisc.Qdisc) bool { return q != nil }); first >= 0 {
			firstQ, firstCap := res.edgeQ[first], capacityFn(p.edges[first].link)
			res.QueueDelayTS = res.sampled(func(now sim.Time) float64 {
				mu := firstCap(now)
				if mu <= 0 {
					return 0
				}
				return float64(firstQ.Bytes()) * 8 / mu * 1000 // ms
			})
			if dq, ok := firstQ.(*sched.DualQueue); ok {
				res.WeightTS = res.sampled(func(sim.Time) float64 { return dq.WeightABC() })
			}
		}
		c.Every(spec.Sample, func(now sim.Time) {
			for _, s := range res.series {
				s.ts.Add(now, s.read(now))
			}
			if spec.Probe != nil {
				spec.Probe(now, res)
			}
		})
	}
	rs := newRunSampler(g, res)
	if rs != nil {
		c.Every(rs.period, rs.sample)
	}
	c.Run(spec.Duration)
	if rs != nil && spec.Duration%rs.period != 0 {
		rs.sample(spec.Duration) // the run ended between two ticks
	}

	// Per-flow throughput over each flow's measured window.
	for i := range res.Flows {
		fr := &res.Flows[i]
		if fr.App != nil {
			// Flush time-based application accounting (playback buffers)
			// before the metrics are read.
			fr.App.Finish(spec.Duration)
		}
		fs := spec.Flows[i]
		from := fs.Start
		if from < spec.Warmup {
			from = spec.Warmup
		}
		to := fs.Stop
		if to == 0 || to > spec.Duration {
			to = spec.Duration
		}
		if to > from {
			fr.TputMbps = float64(fr.Bytes) * 8 / (to - from).Seconds() / 1e6
		}
		fr.Lost = fr.Endpoint.LostPackets
		fr.Retx = fr.Endpoint.RetxPackets
	}
	pooled := poolDelays(res)
	res.Drops = g.UnroutedDrops()
	res.ImpairDrops = g.ImpairDrops()
	res.LinkDownDrops = g.DownDrops()
	res.AdvDrops = g.AdversaryDrops()
	res.AdvDelayed = g.AdversaryDelayed()
	res.AdvStripped = g.AdversaryStripped()
	collectBackgrounds(res)
	if res.adv != nil {
		res.Adversary = res.adv.report(spec, res)
	}
	return pooled
}

// poolDelays builds the run-wide delay recorders from the per-flow ones
// after the run: every declared flow's recorder in flow order, into the
// pooled recorder and into its adversary class, then each workload's
// into the pooled recorder. While the run executes a receiver writes
// only its own flow's (or workload's) recorder, so shards share nothing,
// and the pooled recorder — Mean included — is a function of the
// per-flow recorders alone, the same at every shard count.
func poolDelays(res *Result) *metrics.DelayRecorder {
	pooled := &metrics.DelayRecorder{}
	for i := range res.Flows {
		d := &res.Flows[i].Delay
		pooled.Merge(d)
		if res.adv != nil {
			res.adv.mergeDelay(i, d)
		}
	}
	for i := range res.Workloads {
		pooled.Merge(&res.Workloads[i].delay)
	}
	return pooled
}
