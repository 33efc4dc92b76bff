// The run pipeline: a Spec of either notation goes through validate,
// its front end, the builder and wiring (compile) and then the clock and
// measurement (run). Run is the two in sequence; Check is compile alone,
// which makes "valid" and "builds" one judgement: there is no second
// list of rules to keep in step with what the stages accept. Each stage
// has a file of its own (see the package comment); this one holds the
// driver and the run + measure stage — one sim.Coordinator.Run for every
// spec, on one simulator, with everything that watches it hung on the
// coordinator's barrier hook.
package exp

import (
	"fmt"
	"slices"

	"abc/internal/metrics"
	"abc/internal/netem"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/topo"
)

// compiled is a Spec built onto a graph with every stage wired and no
// event run: what Check stops at and run starts from. It owns the wiring
// state the stages hand each other, so Result carries output only.
type compiled struct {
	spec *Spec // &res.Spec: the caller's Spec with defaults applied
	p    *plan
	g    *topo.Graph
	res  *Result
	// edgeQ holds the built discipline of every graph edge, by edge id
	// (nil for wires): the one list Result's Qdiscs/ReverseQdiscs/
	// EdgeQdiscs views are cut from.
	edgeQ []qdisc.Qdisc
	// adv classifies flows into victim/bystander/attacker and collects
	// the per-class workload FCTs behind Result.Adversary; nil for honest
	// specs.
	adv *advCollector
	// bg holds the running couplers, whose stats are collected after the
	// clock stops.
	bg []*bgRunner
	// series lists the run's time series with their readers, in the
	// order they were added; the run's observer fills them.
	series    []sampledSeries
	workloads []*workloadRunner
	// flows holds every declared flow's sender and receiver, in flow
	// order: what the ledger and the audit read.
	flows []flowEnds
}

// RunOptions says how one run is observed. Both observers are passive
// (see obs.go), so the options change what a run emits, never its
// result; the zero value is an unobserved run. Options travel with the
// run — Params embeds them, and each driver hands them to every Spec it
// runs — so two runs in one process can be observed differently.
type RunOptions struct {
	// Trace, when not nil, is the flight recorder the run's graph, links,
	// disciplines and flow endpoints emit into.
	Trace *obs.Recorder
	// Metrics, when not nil, receives the run's live metrics, sampled
	// once per simulated second, and a sweep's cell counters.
	Metrics *obs.Registry
}

// Run executes the scenario and returns its result along with the pooled
// per-packet delay recorder used for the paper's delay metrics. The
// pooled recorder is read-only: in a one-flow run it is that flow's
// Result.Flows[0].Delay itself.
func (o RunOptions) Run(spec Spec) (*Result, *metrics.DelayRecorder, error) {
	c, err := compile(spec, o.Trace)
	if err != nil {
		return nil, nil, err
	}
	return c.run(o.Metrics)
}

// Run is RunOptions{}.Run with the recorder EnableTracing set, if any,
// attached. Kept for bench/; deleted when bench passes RunOptions
// (ROADMAP 2(g)).
func Run(spec Spec) (*Result, *metrics.DelayRecorder, error) {
	return RunOptions{Trace: traceRec.Load()}.Run(spec)
}

// Check reports whether Run would accept the spec, without running it: a
// Spec is valid iff it builds. It is Run stopped where the clock would
// start — the same stages raise the same errors — with nothing attached
// to observe it.
func Check(spec Spec) error {
	_, err := compile(spec, nil)
	return err
}

// compile is everything before the clock: validate the Spec, translate
// its notation into a plan, build and wire the plan onto a graph that
// emits into rec (nil = untraced), and decide which links serve their
// queues lazily.
func compile(in Spec, rec *obs.Recorder) (*compiled, error) {
	c, err := compileEventful(in, rec)
	if err == nil {
		c.serveLazily()
	}
	return c, err
}

// compileEventful is compile with every link on the eventful path: how
// a test forces it.
func compileEventful(in Spec, rec *obs.Recorder) (*compiled, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	c := &compiled{res: &Result{Spec: in}}
	spec := &c.res.Spec
	c.spec = spec
	if spec.Duration == 0 {
		spec.Duration = 60 * sim.Second
	}
	if spec.RTT == 0 {
		spec.RTT = 100 * sim.Millisecond
	}
	if spec.Warmup == 0 {
		spec.Warmup = 4 * sim.Second
	}

	// Front end: either notation becomes a plan.
	var err error
	if len(spec.Nodes) > 0 || len(spec.Edges) > 0 {
		c.p, err = meshPlan(spec)
	} else {
		c.p, err = lowerChain(spec)
	}
	if err != nil {
		return nil, err
	}
	if len(spec.Flows) == 0 && len(spec.Workloads) == 0 {
		return nil, fmt.Errorf("exp: no flows in spec")
	}

	// Build: the graph on its simulator, its edges and their disciplines.
	c.adv = newAdvCollector(spec, c.p)
	c.g = topo.New(sim.New(spec.Seed))
	c.res.Graph = c.g
	// The flight recorder goes on before any edge exists: AddEdge wires
	// links as they appear.
	c.g.SetRecorder(rec)
	// Build the edges, then wire: flows, arrival processes, the event
	// timeline, fluid backgrounds, route computation.
	for _, stage := range wiring {
		if err := stage(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// wiring lists compile's stages after the graph exists, in order.
var wiring = []func(*compiled) error{
	(*compiled).build, (*compiled).wireFlows, (*compiled).startWorkloads,
	(*compiled).scheduleEvents, (*compiled).startBackgrounds, (*compiled).startRouting,
}

// run starts the clock on a compiled spec and measures. The result
// keeps the graph, so when run returns it empties the graph's packet
// arena: what the run's flows drew stays alive only while in flight.
func (c *compiled) run(reg *obs.Registry) (*Result, *metrics.DelayRecorder, error) {
	defer func() { *c.g.Arena() = packet.Arena{} }()
	pooled := c.runAndMeasure(reg)
	if err := finishWorkloads(c.workloads); err != nil {
		return nil, nil, err
	}
	if err := c.audit(); err != nil {
		return nil, nil, err
	}
	c.tightestTraceUtilization()
	return c.res, pooled, nil
}

// tightestTraceUtilization sets res.Utilization against the tightest
// trace bottleneck over the measurement window (the paper reports
// utilization of the emulated cell link): of the candidate edges that
// have a trace — a chain's forward links, every edge of a mesh — the one
// delivering the fewest bytes between Warmup and Duration is the
// reference, and only flows and workloads whose data route crosses it
// count as delivered bytes.
func (c *compiled) tightestTraceUtilization() {
	spec, res, p := c.spec, c.res, c.p
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
func (c *compiled) sampled(read func(now sim.Time) float64) *metrics.Timeseries {
	ts := &metrics.Timeseries{Period: c.spec.Sample}
	c.series = append(c.series, sampledSeries{ts, read})
	return ts
}

// runAndMeasure attaches the scenario-wide time series, runs the
// coordinator to spec.Duration, finalizes the per-flow counters and
// returns the pooled delay recorder. The standing-queue-delay series
// watches the scenario's leading bottleneck (an all-wire mesh has none).
//
// Everything that watches the run — the time series in registration
// order, then the sampler publishing into reg (nil = none) — is a reader
// called at coordinator barriers (sim.Coordinator.Every): at a sample instant
// the simulator has executed what lies strictly before it, that
// instant's timeline events have applied, and none of its simulator
// events has run. No observer is a simulator event, so a run executes the same
// events whether or not anything watches it.
func (c *compiled) runAndMeasure(reg *obs.Registry) *metrics.DelayRecorder {
	g, spec, res := c.g, c.spec, c.res
	coord := g.Coordinator()
	if spec.Sample > 0 {
		if first := slices.IndexFunc(c.edgeQ, func(q qdisc.Qdisc) bool { return q != nil }); first >= 0 {
			firstQ, firstCap := c.edgeQ[first], capacityFn(c.p.edges[first].link, c.g.Edge(first).Link)
			res.QueueDelayTS = c.sampled(func(now sim.Time) float64 {
				mu := firstCap(now)
				if mu <= 0 {
					return 0
				}
				return float64(firstQ.Bytes()) * 8 / mu * 1000 // ms
			})
		}
		coord.Every(spec.Sample, func(now sim.Time) {
			// The series are results: they read queues and receivers as
			// of now, so the lazy links serve up to now first.
			c.advanceLazy()
			for _, s := range c.series {
				s.ts.Add(now, s.read(now))
			}
		})
	}
	rs := newRunSampler(c, reg)
	if rs != nil {
		coord.Every(metricsPeriod, rs.sample)
	}
	coord.Run(spec.Duration)
	// What the run reports counts every departure up to its end, and
	// none after it.
	c.advanceLazy()
	if rs != nil {
		// The last tick ran before the events at its instant, or the run
		// ended between two ticks: publish what the run ended with.
		rs.sample(spec.Duration)
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
	pooled := c.poolDelays()
	res.Ledger = c.ledger()
	res.Drops = res.Ledger.Released[packet.Unrouted]
	res.AdvDelayed = g.AdversaryDelayed()
	res.AdvStripped = g.AdversaryStripped()
	c.collectBackgrounds()
	if c.adv != nil {
		res.Adversary = c.adv.report(spec, res)
	}
	return pooled
}

// advanceLazy brings every lazily served link up to the clock
// (netem.RateLink.Advance): what a simulation-side reader calls before
// it reads a queue, a link or a receiver the link hands packets to. An
// out-of-band reader — the metrics sampler, the flight recorder — never
// does, so it cannot change a run.
func (c *compiled) advanceLazy() {
	for id := range c.edgeQ {
		if l, ok := c.g.Edge(id).Link.(*netem.RateLink); ok {
			l.Advance()
		}
	}
}

// poolDelays builds the run-wide delay recorders from the per-flow ones
// after the run: every declared flow's recorder in flow order, into the
// pooled recorder and into its adversary class, then each workload's
// into the pooled recorder. While the run executes a receiver writes
// only its own flow's (or workload's) recorder, so the pooled recorder
// — Mean included — is a function of the per-flow recorders alone.
//
// A run with one declared flow, no workloads and no adversary pools
// that flow's recorder alone, and merging one recorder into an empty
// one reproduces its sum, count, extremes, raw samples and counters
// exactly: the pooled recorder is the flow's own, not a copy.
func (c *compiled) poolDelays() *metrics.DelayRecorder {
	res := c.res
	if len(res.Flows) == 1 && len(res.Workloads) == 0 && c.adv == nil {
		return &res.Flows[0].Delay
	}
	pooled := &metrics.DelayRecorder{}
	for i := range res.Flows {
		d := &res.Flows[i].Delay
		pooled.Merge(d)
		if c.adv != nil {
			c.adv.mergeDelay(i, d)
		}
	}
	for i := range res.Workloads {
		pooled.Merge(&res.Workloads[i].delay)
	}
	return pooled
}
