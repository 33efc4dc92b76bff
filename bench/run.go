package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"abc/internal/exp"
	"abc/internal/obs"
)

// repStats is what the untraced, timed reps of one process add up to.
type repStats struct {
	walls, cpus, twinWalls []float64 // seconds per rep
	mallocs, allocBytes    uint64
	gcCycles               uint32
	gcPauseNs              uint64
	heapInuse              uint64
}

// measurement is one workload being measured in this process.
type measurement struct {
	w     *workload
	cfg   config
	log   *spanLog
	root  int // the span every other span of the run hangs under
	wr    WorkloadReport
	specs []exp.Spec
	ref   pass // the warm-up rep: the result every later rep must repeat
	st    repStats
}

// count adds a pass's operations and failed checks to the report.
func (m *measurement) count(p *pass) {
	m.wr.Attempted += p.attempted
	m.wr.Failed += p.failed
	m.wr.Failures = append(m.wr.Failures, p.failures...)
}

// measureWorkload runs one workload in this process: set-up, one
// discarded warm-up rep (kept as the reference result), timed untraced
// reps for the time budget and, when asked for per-layer metrics, the
// rungs and the traced passes. End-to-end numbers only ever come from
// the untraced reps.
func measureWorkload(w *workload, cfg config) (WorkloadReport, error) {
	start := time.Now()
	log := &spanLog{t0: start, workload: w.name}
	root := log.begin(w.name, 0)
	m := &measurement{w: w, cfg: cfg, log: log, root: root, wr: WorkloadReport{Name: w.name}}
	wr, st := &m.wr, &m.st

	// Host speed samples are taken around set-up and every timed rep;
	// their median corrects the run's time metrics (see host.go).
	probe := newHostProbe()
	host := []float64{probe.sample()}

	tries := 25
	if cfg.smoke {
		tries = 2
	}
	sp := log.begin("setup", root)
	var setups []float64
	for i := 0; i < tries; i++ {
		d, err := timeSetup(w, cfg.seed, cfg.smoke)
		if err != nil {
			return *wr, err
		}
		setups = append(setups, d.Seconds())
	}
	log.end(sp)
	host = append(host, probe.sample())

	specs, inputs := w.build(cfg.seed, cfg.smoke)
	m.specs = specs
	wr.SpecHash = specHash(inputs)

	sp = log.begin("warmup", root)
	m.ref = runPass(w, specs, log, sp)
	log.end(sp)
	ref := &m.ref
	ref.check(nil, "warm-up")
	m.count(ref)
	wr.Digest = ref.digest

	// The twin runs the same inputs another way (mesh_seq for
	// mesh_shard2) and must produce the same result.
	var twin *workload
	var twinSpecs []exp.Spec
	runTwin := func() float64 {
		sp := log.begin("twin "+twin.name, root)
		p := runPass(twin, twinSpecs, log, sp)
		log.end(sp)
		p.check(ref, "twin "+twin.name)
		m.count(&p)
		return p.wall.Seconds()
	}
	if w.twin != "" {
		twin = findWorkload(w.twin)
		twinSpecs, _ = twin.build(cfg.seed, cfg.smoke)
		runTwin()
	}

	// The traced process spends a third of its time on untraced reps
	// (the ladder needs their median), the rest on rungs and traced
	// passes.
	budget := cfg.seconds
	if cfg.trace {
		budget /= 3
	}
	runtime.GC()
	t0 := time.Now()
	for rep := 0; rep == 0 || (!cfg.smoke && since(t0) < budget); rep++ {
		host = append(host, probe.sample())
		sp := log.begin(fmt.Sprintf("rep %d", rep), root)
		m0 := memStats()
		p := runPass(w, specs, log, sp)
		m1 := memStats()
		log.end(sp)
		p.check(ref, fmt.Sprintf("rep %d", rep))
		m.count(&p)
		st.walls = append(st.walls, p.wall.Seconds())
		st.cpus = append(st.cpus, p.cpu.Seconds())
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		st.gcCycles += m1.NumGC - m0.NumGC
		st.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		st.heapInuse = m1.HeapInuse
		if cfg.trace && twin != nil {
			st.twinWalls = append(st.twinWalls, runTwin())
		}
	}
	host = append(host, probe.sample())
	wr.Reps = len(st.walls)
	wr.HostSpeedIndex = summarise(host, "ratio").Value
	simS := ref.simS * float64(wr.Reps)

	if !cfg.trace {
		// Times are divided by the host speed index: what the rep would
		// have taken on the undisturbed reference host.
		rate := func(secs []float64) Metric {
			xs := make([]float64, len(secs))
			for i, s := range secs {
				xs[i] = ref.simS / (s / wr.HostSpeedIndex)
			}
			return summarise(xs, "1/s")
		}
		for i := range setups {
			setups[i] /= wr.HostSpeedIndex
		}
		wr.EndToEnd = map[string]Metric{
			"sim_s_per_wall_s":   rate(st.walls),
			"sim_s_per_cpu_s":    rate(st.cpus),
			"allocs_per_sim_s":   {Value: float64(st.mallocs) / simS, Unit: "1/s"},
			"alloc_kb_per_sim_s": {Value: float64(st.allocBytes) / 1024 / simS, Unit: "KiB/s"},
			"peak_rss_mb":        {Value: peakRSSMB(), Unit: "MiB"},
			"setup_s":            summarise(setups, "s"),
		}
	} else if err := m.ladder(); err != nil {
		return *wr, err
	}

	log.end(root)
	wr.Spans = log.spans
	wr.WallS = since(start)
	return *wr, nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// interpolate reads y at x off the piecewise-linear curve through the
// three points (xs[i], ys[i]), flat outside them.
func interpolate(x float64, xs, ys [3]float64) float64 {
	switch {
	case x <= xs[0]:
		return ys[0]
	case x >= xs[2]:
		return ys[2]
	case x <= xs[1]:
		return ys[0] + (ys[1]-ys[0])*(x-xs[0])/(xs[1]-xs[0])
	}
	return ys[1] + (ys[2]-ys[1])*(x-xs[1])/(xs[2]-xs[1])
}

// ladder fills wr.PerLayer: the rungs, the exact counts of the reference
// pass and of the traced passes, and what follows from them.
func (m *measurement) ladder() error {
	wr, ref, st, log, root := &m.wr, &m.ref, &m.st, m.log, m.root
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	wr.PerLayer = map[string]Metric{}
	set := func(name string, v float64) { wr.PerLayer[name] = Metric{Value: v, Unit: units[name]} }

	// Rungs. ns[name] keeps each in nanoseconds for the attribution.
	ns := map[string]float64{}
	batches := 5
	if m.cfg.smoke {
		batches = 1
	}
	for i := range rungs {
		r := &rungs[i]
		n := r.n
		if m.cfg.smoke {
			n = max(r.n/500, 2)
		}
		sp := log.begin(r.name, root)
		res, err := r.measure(n, batches, ns["sim.event_ns_shallow"])
		log.end(sp)
		if err != nil {
			return err
		}
		wr.PerLayer[r.name] = Metric{Value: res.selfNs / unitNs[r.unit], Unit: r.unit, N: batches}
		ns[r.name] = res.selfNs
		if r.name == "packet.get_release_ns" {
			set("packet.allocs_per_op", res.allocs)
		}
	}

	// Traced passes: once at every category for the overhead, then once
	// per category whose count no public counter gives.
	traced := map[obs.Cat]uint64{}
	var tracedWall float64
	for _, mask := range []obs.Cat{obs.CatAll, obs.CatHop, obs.CatCC, obs.CatRoute, obs.CatMark} {
		sp := log.begin(fmt.Sprintf("traced %#x", uint32(mask)), root)
		p, total := tracedPass(m.w, m.specs, mask, log, sp)
		log.end(sp)
		p.check(ref, fmt.Sprintf("traced pass %#x", uint32(mask)))
		if mask == obs.CatMark && total != uint64(ref.marks) {
			p.fail("recorder saw %d mark decisions, the routers' counters say %d", total, ref.marks)
			p.failed = p.attempted
		}
		m.count(&p)
		traced[mask] = total
		if mask == obs.CatAll {
			tracedWall = p.wall.Seconds()
		}
	}
	hops, cwnd, routes := float64(traced[obs.CatHop]), float64(traced[obs.CatCC]), float64(traced[obs.CatRoute])

	wall := summarise(st.walls, "s").Value
	events := float64(ref.events)
	set("sim.events", events)
	set("sim.wall_ns_per_event", wall*1e9/events)
	set("sim.shard_rounds", float64(ref.shardRounds))
	imbalance, speedup := 1.0, 1.0
	if ref.shards > 0 {
		imbalance = float64(ref.shardMax) * float64(ref.shards) / events
	}
	if len(st.twinWalls) > 0 {
		speedup = summarise(st.twinWalls, "s").Value / wall
	}
	set("sim.shard_imbalance", imbalance)
	set("sim.shard_speedup", speedup)

	set("topo.hops", hops)
	set("topo.route_installs", routes)
	set("topo.unrouted_drops", float64(ref.unroutedDrops))

	set("qdisc.enqueued", float64(ref.enqueued))
	set("qdisc.dequeued", float64(ref.dequeued))
	set("qdisc.dropped", float64(ref.drops))

	set("abc.accel_marks", float64(ref.accel))
	set("abc.brake_marks", float64(ref.brake))
	set("abc.echo_demoted", float64(ref.echoDemoted))
	accelFrac := 0.0
	if ref.accel+ref.brake > 0 {
		accelFrac = float64(ref.accel) / float64(ref.accel+ref.brake)
	}
	set("abc.accel_frac", accelFrac)
	set("abc.norm_tput_cubic_codel", ref.normTput)
	set("abc.norm_p95_cubic_codel", ref.normP95)

	// Every packet a discipline hands its link, the link delivers.
	set("netem.delivered_pkts", float64(ref.dequeued))

	set("cc.sent_pkts", float64(ref.sent))
	set("cc.acked_pkts", float64(ref.acked))
	set("cc.retx_pkts", float64(ref.retx))
	set("cc.lost_pkts", float64(ref.lost))
	set("cc.cwnd_updates", cwnd)

	set("metrics.delay_samples", float64(ref.delaySamples))
	set("obs.trace_events", float64(traced[obs.CatAll]))
	set("obs.trace_overhead_frac", tracedWall/wall-1)

	set("fluid.steps", float64(ref.fluidSteps))
	set("fluid.served_mb", ref.fluidServedMB)
	set("fluid.mean_share", ref.fluidShare)

	set("app.flows_spawned", float64(ref.spawned))
	set("app.flows_completed", float64(ref.completed))
	set("app.flows_rejected", float64(ref.rejected))
	set("app.fct_p95_ms", ref.fct.P95())
	set("exp.cells", float64(ref.cells))

	set("runtime.gc_cycles", float64(st.gcCycles)/float64(len(st.walls)))
	set("runtime.gc_pause_ms", float64(st.gcPauseNs)/1e6/float64(len(st.walls)))
	set("runtime.heap_inuse_mb", float64(st.heapInuse)/(1<<20))
	set("host.speed_index", wr.HostSpeedIndex)

	// The ladder: each module's count on this workload times its rung,
	// in seconds of one rep. An event is charged to sim at the hold-model
	// cost for the workload's own heap depth (the events still pending
	// when its runs ended), read off the three depths the rungs measure.
	// Wires are crossed once per hop over an edge with propagation delay
	// and once per access tail, i.e. twice per acknowledged packet;
	// endpoints are built once per flow.
	depth := float64(ref.pending) / float64(max(ref.shards, 1))
	set("sim.pending_at_end", float64(ref.pending))
	eventNs := interpolate(math.Log2(math.Max(depth, 1)),
		[3]float64{4, 10, 16}, [3]float64{ns["sim.event_ns_shallow"], ns["sim.event_ns"], ns["sim.event_ns_deep"]})
	flows := 0
	for i := range m.specs {
		flows += len(m.specs[i].Flows)
	}
	attributed := map[string]float64{
		"sim":      events * eventNs,
		"topo":     hops*ns["topo.hop_ns"] + routes*ns["topo.route_install_us"],
		"qdisc":    float64(ref.deqDropTail)*ns["qdisc.droptail_ns"] + float64(ref.deqCoDel)*ns["qdisc.codel_ns"] + float64(ref.deqPIE)*ns["qdisc.pie_ns"],
		"abc":      float64(ref.deqABC)*ns["abc.router_ns"] + float64(ref.abcAcks)*ns["abc.sender_ack_ns"],
		"explicit": float64(ref.deqXCP) * ns["explicit.xcp_ns"],
		"netem": float64(ref.deqTraceLink)*ns["netem.trace_link_pkt_ns"] + float64(ref.deqRateLink)*ns["netem.rate_link_pkt_ns"] +
			(hops*ref.wireFrac+2*cwnd)*ns["netem.wire_pkt_ns"],
		"cc":      cwnd*ns["cc.endpoint_pkt_ns"] + float64(flows+ref.spawned)*ns["cc.endpoint_new_us"],
		"metrics": float64(ref.delaySamples) * ns["metrics.delay_add_ns"],
		"fluid":   float64(ref.fluidSteps) * ns["fluid.coupler_step_ns"],
	}
	var sum float64
	for mod, v := range attributed {
		set(mod+".attributed_s", v/1e9)
		sum += v / 1e9
	}
	set("exp.ladder_residual_frac", 1-sum/wall)
	return nil
}
