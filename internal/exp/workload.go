// Application workloads over the scenario harness: open-loop flow
// arrival processes that spawn finite flows mid-run (Spec.Workloads) and
// closed-loop applications bound to declared flows (FlowSpec.App). Both
// ride the same topology graph and registries as static flows, so any
// registered scheme can carry them, and all randomness (arrival gaps,
// flow sizes, think times) comes from the simulation RNG — a seeded run
// replays the exact same workload.
package exp

import (
	"fmt"

	"abc/internal/app"
	"abc/internal/cc"
	"abc/internal/metrics"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
)

// WorkloadSpec describes one open-loop arrival process: flows of Scheme
// arrive with Arrival-drawn gaps, carry Sizes-drawn bytes, complete, and
// report flow-completion times. Routing uses the same fields as a
// FlowSpec (Dir/EnterAt/ExitAt in chain notation, Path/AckPath in mesh
// notation) and resolves through the same front ends.
type WorkloadSpec struct {
	Scheme string `spec:"scheme"`
	// Class labels the workload in results (default "w<index>").
	Class string `spec:"class"`
	// Arrival is the arrival process (required); each run opens its own
	// cursor over it.
	Arrival app.Arrival `spec:"arrival"`
	// Sizes draws per-flow transfer sizes in bytes: required, except
	// beside a replay arrival, whose log fixes the sizes (and then
	// forbidden).
	Sizes app.SizeDist `spec:"size"`
	// Start/Stop bound the arrival process; Stop 0 means Duration.
	Start sim.Time `spec:"start_s"`
	Stop  sim.Time `spec:"stop_s"`
	// Chain routing, exactly as on FlowSpec.
	Dir     Direction `spec:"dir"`
	EnterAt int       `spec:"enter_at"`
	ExitAt  int       `spec:"exit_at"`
	// Mesh routing, exactly as on FlowSpec.
	Path    []string `spec:"path"`
	AckPath []string `spec:"ack_path"`
	// RTT overrides Spec.RTT for spawned flows.
	RTT sim.Time `spec:"rtt_ms"`
	// MaxActive caps concurrently active spawned flows; arrivals beyond
	// the cap are rejected and counted (default 1024). The cap bounds
	// the *live* simulation load under overload (endpoints sending,
	// retransmission timers, queue occupancy) where an open-loop process
	// outpaces the link indefinitely. A completed flow is unrouted with
	// its last packet and leaves only a class and a tail slot per
	// direction on the graph (≈ 40 B); its endpoint, receiver, source,
	// algorithm, callbacks and tail wires are reused by later arrivals
	// (spawned), so footprint follows the most flows active at once, not
	// Spawned.
	MaxActive int `spec:"max_active"`
	// RefMbps, when > 0, additionally reports each FCT as a slowdown
	// against an ideal same-size transfer at this rate plus one RTT.
	RefMbps float64 `spec:"ref_mbps"`
}

// WorkloadResult reports one workload's completion metrics. Only flows
// arriving at or after Warmup feed the recorders; Bytes likewise counts
// post-warmup deliveries.
type WorkloadResult struct {
	Class string
	// Spawned/Completed/Rejected/Active count flows over the whole run:
	// Active is what was still in flight when the run ended, Rejected
	// what the MaxActive cap refused.
	Spawned, Completed, Rejected, Active int
	Bytes                                int64
	// FCT holds completion times (ms); Slowdown the RefMbps-normalized
	// ratios; QDelay per-packet accumulated queueing delay (ms).
	FCT, Slowdown, QDelay metrics.DelayRecorder

	// delay holds the spawned flows' post-warmup one-way packet delays,
	// for the run's pooled recorder (poolDelays).
	delay metrics.DelayRecorder
}

// Stats condenses the result for reports.
func (w *WorkloadResult) Stats() metrics.FCTStats {
	return metrics.NewFCTStats(w.Class, &w.FCT, &w.Slowdown, w.Bytes)
}

// AppSpec attaches a closed-loop application to a FlowSpec: the app
// drives the flow's source and reacts to transfer completions. Mutually
// exclusive with FlowSpec.Source.
type AppSpec struct {
	// Kind selects the application: "abr" (video client) or "rpc"
	// (request-response client); the other kind's fields stay zero.
	Kind string        `spec:"kind"`
	ABR  app.ABRConfig `spec:",inline"`
	RPC  app.RPCConfig `spec:",inline"`
}

// appTransport adapts one endpoint + fixed source pair to app.Transport.
// The single-owner rule for app-driven flows: the application is the
// only writer of src.Remaining, and the endpoint the only reader, so a
// transfer's byte count never races its completion callback.
type appTransport struct {
	ep  *cc.Endpoint
	src *cc.Fixed
}

// Queue implements app.Transport.
func (t *appTransport) Queue(n int) {
	t.src.Remaining += n
	t.ep.BeginTransfer()
}

// buildApp wires a validated application onto a flow's endpoint. The
// returned app still needs Start scheduled at the flow's start time.
func buildApp(s *sim.Simulator, ep *cc.Endpoint, as *AppSpec, warmup sim.Time) app.App {
	src := &cc.Fixed{}
	ep.Src = src
	tr := &appTransport{ep: ep, src: src}
	var a app.App
	if as.Kind == "rpc" {
		cfg := as.RPC
		if cfg.MeasureFrom == 0 {
			cfg.MeasureFrom = warmup
		}
		a = app.NewRPC(s, tr, cfg, s.Rand())
	} else {
		a = app.NewABR(s, tr, as.ABR)
	}
	ep.OnComplete = a.OnTransferComplete
	return a
}

// workloadRunner drives one arrival process over the compiled graph.
type workloadRunner struct {
	g    *topo.Graph
	spec *Spec
	ws   *WorkloadSpec
	wr   *WorkloadResult
	// gaps and sizes are this run's draws of the workload's arrival
	// process and size distribution: a replay's cursor lives here.
	gaps   app.Gaps
	sizes  app.SizeDist
	adv    *advCollector
	route  flowRoute
	nextID *int
	stopAt sim.Time
	active int
	err    error
	// live holds the bundles of the spawned flows whose packets have not
	// all ended, in no order: each bundle knows its slot, and a drained
	// flow leaves by swapping the last bundle into it. Its account is
	// folded into drained and its bundle goes on free for the next
	// arrival, so what the runner keeps of finished flows is one account
	// and the bundles of the most flows it had live at once.
	live    []*spawned
	drained account
	free    []*spawned
}

// startWorkloads validates every workload and schedules its arrival
// process. Spawned flows get ids after the static flows'. The runners
// must be finished (finishWorkloads) after the run to surface mid-run
// wiring errors and final active counts.
func (c *compiled) startWorkloads() error {
	g, spec, res, routes := c.g, c.spec, c.res, c.p.wroutes
	if len(spec.Workloads) == 0 {
		return nil
	}
	res.Workloads = make([]WorkloadResult, len(spec.Workloads))
	nextID := len(spec.Flows)
	for i := range spec.Workloads {
		ws := &spec.Workloads[i]
		gaps, err := ws.Arrival.Open()
		if err != nil {
			return fmt.Errorf("exp: workload %d: %v", i, err)
		}
		sizes := ws.Sizes
		if sizes == nil { // only a replay (validate), whose log fixes the sizes
			sizes = gaps.(app.SizeDist)
		}
		if _, err := cc.New(ws.Scheme); err != nil {
			return fmt.Errorf("exp: workload %d: %v", i, err)
		}
		wr := &res.Workloads[i]
		wr.Class = ws.Class
		if wr.Class == "" {
			wr.Class = fmt.Sprintf("w%d", i)
		}
		stop := ws.Stop
		if stop <= 0 || stop > spec.Duration {
			stop = spec.Duration
		}
		r := &workloadRunner{
			g: g, spec: spec, ws: ws, wr: wr, gaps: gaps, sizes: sizes,
			adv: c.adv, route: routes[i], nextID: &nextID, stopAt: stop,
		}
		c.workloads = append(c.workloads, r)
		g.S.At(ws.Start, r.schedule)
	}
	return nil
}

// finishWorkloads records end-of-run state and surfaces the first
// mid-run wiring error (dropping offered load silently would corrupt the
// experiment).
func finishWorkloads(runners []*workloadRunner) error {
	for _, r := range runners {
		r.wr.Active = r.active
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// schedule draws the next inter-arrival gap and arms the spawn event.
// The process self-terminates once the next arrival would land at or
// past the stop time.
func (r *workloadRunner) schedule() {
	if r.err != nil {
		return
	}
	s := r.g.S
	gap := r.gaps.Next(s.Rand())
	now := s.Now()
	if gap <= 0 {
		gap = 1 // degenerate processes still make progress
	}
	if gap >= r.stopAt-now {
		return
	}
	s.AfterArgs(gap, workloadArrival, r, nil)
}

// workloadArrival is one arrival as a static event callback: the flow
// spawns, and the next gap is drawn.
func workloadArrival(a, _ any) {
	r := a.(*workloadRunner)
	r.spawn(r.g.S.Now())
	r.schedule()
}

// spawned is the storage of one spawned flow, which outlives the flow:
// once the flow has drained, the bundle waits on its runner's free list
// for the next arrival, which re-initialises it in place. The endpoint,
// receiver and source are held by value, the algorithm is built once
// and Reset for each later flow, and the three callbacks are method
// values bound once, when the bundle is made: the receiver's OnData
// survives Reset, and each flow's OnComplete and Finish take complete
// and drain.
type spawned struct {
	r        *workloadRunner
	ep       cc.Endpoint
	recv     netem.Receiver
	src      cc.Fixed
	alg      cc.Algorithm
	complete func(sim.Time)
	drain    func()
	// slot is the bundle's index in its runner's live list while its
	// flow is live.
	slot int
	// The flow it carries: its id, arrival time, size and RTT.
	id      int
	arrived sim.Time
	size    int
	rtt     sim.Time
}

// bundle returns storage for the next spawned flow: a drained flow's
// from the free list, its algorithm reset, else a new bundle with a new
// algorithm of the workload's scheme.
func (r *workloadRunner) bundle() (*spawned, error) {
	if n := len(r.free); n > 0 {
		b := r.free[n-1]
		r.free = r.free[:n-1]
		b.alg.Reset()
		return b, nil
	}
	alg, err := cc.New(r.ws.Scheme)
	if err != nil {
		return nil, err
	}
	b := &spawned{r: r, alg: alg}
	b.recv.OnData = b.onData
	b.complete = b.onComplete
	b.drain = b.onDrain
	return b, nil
}

// spawn wires one finite flow onto the graph and starts it.
func (r *workloadRunner) spawn(now sim.Time) {
	max := r.ws.MaxActive
	if max <= 0 {
		max = 1024
	}
	if r.active >= max {
		r.wr.Rejected++
		return
	}
	size := r.sizes.Draw(r.g.S.Rand())
	if size < 1 {
		size = 1
	}
	b, err := r.bundle()
	if err != nil {
		r.fail(err)
		return
	}
	id := *r.nextID
	*r.nextID = id + 1
	rtt := r.ws.RTT
	if rtt <= 0 {
		rtt = r.spec.RTT
	}
	if err := attachFlow(r.g, id, b.alg, r.route, rtt, b.ends()); err != nil {
		r.fail(err)
		return
	}
	b.id, b.arrived, b.size, b.rtt = id, now, size, rtt
	b.src = cc.Fixed{Remaining: size}
	b.ep.Src = &b.src
	b.ep.OnComplete = b.complete
	b.slot = len(r.live)
	r.live = append(r.live, b)
	r.active++
	r.wr.Spawned++
	b.ep.Start()
}

// ends returns the bundle's flow ends, for attachFlow and the audit.
func (b *spawned) ends() flowEnds { return flowEnds{&b.ep, &b.recv} }

// onData is the receiver's OnData hook: post-warmup deliveries feed the
// workload's recorders.
func (b *spawned) onData(t sim.Time, p *packet.Packet) {
	if t < b.r.spec.Warmup {
		return
	}
	wr := b.r.wr
	wr.Bytes += int64(p.Size)
	wr.delay.Add(t - p.SentAt)
	wr.QDelay.Add(p.QueueDelay)
}

// onComplete is the endpoint's OnComplete: the flow stops, its
// completion is counted and, if it arrived after warmup, its FCT
// recorded.
func (b *spawned) onComplete(done sim.Time) {
	r, wr := b.r, b.r.wr
	b.ep.Stop()
	// The flow's own ACKs or spurious retransmissions may still be in
	// flight: its routes, and with them everything of the flow the graph
	// references, go with its last packet (onDrain).
	b.ep.Tally.Finish(b.drain)
	r.active--
	wr.Completed++
	if b.arrived < r.spec.Warmup {
		return
	}
	fct := done - b.arrived
	wr.FCT.Add(fct)
	slow := 0.0
	if r.ws.RefMbps > 0 {
		ideal := b.rtt + sim.FromSeconds(float64(b.size)*8/(r.ws.RefMbps*1e6))
		if ideal > 0 {
			slow = fct.Seconds() / ideal.Seconds()
			wr.Slowdown.AddSample(slow)
		}
	}
	if r.adv != nil {
		r.adv.addFCT(b.id, fct, slow, int64(b.size))
	}
}

// onDrain runs with the end of the flow's last packet: the flow is
// unrouted, its books are folded into the workload's, and the bundle
// goes on the free list. It is reusable now: its endpoint is stopped,
// none of its packets is live, and no event of its own is pending (Stop
// cancelled them, and the receiver schedules none).
func (b *spawned) onDrain() {
	r := b.r
	r.drained.add(b.ends().account())
	last := r.live[len(r.live)-1]
	last.slot = b.slot
	r.live[b.slot] = last
	r.live[len(r.live)-1] = nil
	r.live = r.live[:len(r.live)-1]
	if err := r.g.UnrouteFlow(b.id); err != nil {
		// Still routed to the bundle's endpoint and receiver: not reused.
		r.fail(err)
		return
	}
	r.free = append(r.free, b)
}

// fail records the first wiring error and stops the arrival process.
func (r *workloadRunner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}
