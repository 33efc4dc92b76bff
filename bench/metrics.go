package main

// metricDef names one reported number. BENCHMARK.json at the root of the
// repo lists the same names, units and directions (bench_test.go holds
// the two in step).
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
	// what says what the number is and, for a layer's metric, which
	// end-to-end metric on which workload it is expected to move. R is a
	// rung, C an exact count, D derived.
	what string
}

// endToEnd are the metrics a user of the simulator sees, per workload.
// The three that are times (the two speeds and setup_s) are corrected by
// the run's host speed index, see host.go.
// Events per wall second is deliberately not here: a change that removes
// events must not read as a regression. It lives in the sim layer.
//
// failed_frac (operations failed / attempted, bound 0) is reported as
// the result line's failed and attempted counts, not as a metric: the
// benchmark contract wants metrics that are never 0.
var endToEnd = []metricDef{
	{"sim_s_per_wall_s", "1/s", "higher", 0.25, "simulated seconds per wall second inside exp.Run, median over reps, host-speed corrected; the headline"},
	{"sim_s_per_cpu_s", "1/s", "higher", 0.25, "simulated seconds per process CPU second (user+system); differs from the wall metric only on mesh_shard2"},
	{"allocs_per_sim_s", "1/s", "lower", 0.25, "heap objects allocated per simulated second over the timed reps"},
	{"alloc_kb_per_sim_s", "KiB/s", "lower", 0.20, "heap KiB allocated per simulated second over the timed reps"},
	{"peak_rss_mb", "MiB", "lower", 0.15, "the process's VmHWM after the timed reps"},
	{"setup_s", "s", "lower", 0.25, "seconds to synthesise the inputs and compile and wire every spec (1 ms of simulated time each), median of 25 tries, host-speed corrected"},
}

// perLayer are the ladder's numbers, <module>.<name>. Names ending in
// _ns, _us or _ms are rungs (isolated timings of the module's public
// calls, self time); attributed_s, *_frac and a few others are derived;
// the rest, with unit "count", are exact counts from public counters or
// the traced passes and repeat exactly for a fixed seed.
var perLayer = []metricDef{
	{"sim.event_ns_shallow", "ns", "lower", 0, "R: hold model (pop, dispatch, AfterArgs) at 16 pending events; what the other rungs subtract per event"},
	{"sim.event_ns", "ns", "lower", 0, "R: hold model at 1k pending events; moves sim_s_per_wall_s on every workload, most on mesh_seq"},
	{"sim.event_ns_deep", "ns", "lower", 0, "R: hold model at 64k pending events"},
	{"sim.cancel_ns", "ns", "lower", 0, "R: AfterArgs plus eager Stop against a 1k-deep heap"},
	{"sim.events", "count", "lower", 0, "C: events executed, summed over shards and runs"},
	{"sim.pending_at_end", "count", "lower", 0, "C: events still queued when the runs ended (event-weighted mean over runs): the workload's heap depth"},
	{"sim.wall_ns_per_event", "ns", "lower", 0, "D: median rep wall time / sim.events; events per wall second lives here, not end to end"},
	{"sim.shard_rounds", "count", "lower", 0, "C: conservative-sync windows the coordinator executed; moves mesh_shard2 only"},
	{"sim.shard_imbalance", "ratio", "lower", 0, "C: busiest shard's events / mean shard events (1 unsharded)"},
	{"sim.shard_speedup", "ratio", "higher", 0, "D: mesh_seq median wall / mesh_shard2 median wall, same process, alternating reps (1 elsewhere)"},
	{"sim.attributed_s", "s", "lower", 0, "D: sim.events x the hold-model cost read off the three depths at the workload's own depth"},

	{"packet.get_release_ns", "ns", "lower", 0, "R: one data/ACK exchange through the free list; moves allocs and GC on flow_churn"},
	{"packet.allocs_per_op", "1/op", "lower", 0, "R: heap objects per exchange (0 while the pool is warm)"},

	{"topo.hop_ns", "ns", "lower", 0, "R: junction lookup plus edge gate; moves sim_s_per_wall_s on mesh_*, hardly on cellular_sweep and hybrid_bg"},
	{"topo.fib_lookup_ns", "ns", "lower", 0, "R: mid-route lookup, 8 flows sharing one class"},
	{"topo.hop_traced_ns", "ns", "lower", 0, "R: topo.hop_ns with the recorder attached at CatHop|CatPacket"},
	{"topo.route_install_us", "us", "lower", 0, "R: RouteFlow of an 8-edge path for a fresh flow id; the write side: moves flow_churn and setup_s"},
	{"topo.hops", "count", "lower", 0, "C: forwarding decisions (CatHop events of a traced pass)"},
	{"topo.route_installs", "count", "lower", 0, "C: route-table writes (CatRoute events: class attach, detach, reroute)"},
	{"topo.unrouted_drops", "count", "lower", 0, "C: Result.Drops; 0 on the static workloads or the run fails"},
	{"topo.attributed_s", "s", "lower", 0, "D: hops x hop_ns + route_installs x route_install_us"},

	{"qdisc.droptail_ns", "ns", "lower", 0, "R: enqueue+dequeue at a 100-packet standing queue; moves cellular_sweep"},
	{"qdisc.codel_ns", "ns", "lower", 0, "R: the same through CoDel, sojourn under target"},
	{"qdisc.pie_ns", "ns", "lower", 0, "R: the same through PIE, delay under target"},
	{"qdisc.enqueued", "count", "lower", 0, "C: qdisc.Stats.EnqueuedPackets over every discipline of every run"},
	{"qdisc.dequeued", "count", "lower", 0, "C: DequeuedPackets likewise"},
	{"qdisc.dropped", "count", "lower", 0, "C: DroppedPackets likewise"},
	{"qdisc.attributed_s", "s", "lower", 0, "D: packets dequeued by DropTail, CoDel and PIE x their rungs"},

	{"abc.router_ns", "ns", "lower", 0, "R: enqueue+dequeue with the mark computation, capacity provider set, 20-packet queue; moves cellular_sweep and hybrid_bg"},
	{"abc.sender_ack_ns", "ns", "lower", 0, "R: the ABC sender's per-ACK window update"},
	{"abc.accel_marks", "count", "higher", 0, "C: Router.AccelMarked over every ABC router"},
	{"abc.brake_marks", "count", "lower", 0, "C: Router.BrakeMarked"},
	{"abc.echo_demoted", "count", "lower", 0, "C: Router.EchoDemoted"},
	{"abc.accel_frac", "ratio", "higher", 0, "D: accel / (accel + brake)"},
	{"abc.norm_tput_cubic_codel", "ratio", "lower", 0, "C: Cubic+Codel's throughput normalised to ABC (exp.SummaryTable on cellular_sweep); simulated, the paper's Table 1 has about 0.67; a perf-only change leaves it bit-identical"},
	{"abc.norm_p95_cubic_codel", "ratio", "higher", 0, "C: Cubic+Codel's p95 delay normalised to ABC, likewise (the paper: similar delay)"},
	{"abc.attributed_s", "s", "lower", 0, "D: ABC-router dequeues x router_ns + ABC senders' ACKs x sender_ack_ns"},

	{"explicit.xcp_ns", "ns", "lower", 0, "R: XCP router enqueue+dequeue with a valid congestion header; moves cellular_sweep"},
	{"explicit.attributed_s", "s", "lower", 0, "D: XCP/XCPw dequeues x xcp_ns"},
	{"sched.dualqueue_ns", "ns", "lower", 0, "R: dual-queue enqueue+dequeue, ABC and other traffic alternating (no workload uses it yet)"},

	{"netem.trace_link_pkt_ns", "ns", "lower", 0, "R: one packet through a trace link (self time); moves cellular_sweep"},
	{"netem.rate_link_pkt_ns", "ns", "lower", 0, "R: one packet through a rate link (self time); moves hybrid_bg, flow_churn, mesh_*"},
	{"netem.wire_pkt_ns", "ns", "lower", 0, "R: one packet over a wire, 100 in flight (self time)"},
	{"netem.delivered_pkts", "count", "higher", 0, "C: packets the links delivered = packets their disciplines dequeued (checked in bytes)"},
	{"netem.attributed_s", "s", "lower", 0, "D: trace- and rate-link packets x their rungs + wire crossings x wire_pkt_ns"},

	{"wifi.link_pkt_ns", "ns", "lower", 0, "R: one frame through the A-MPDU batching link (self time; no workload uses it yet)"},
	{"wifi.estimator_ns", "ns", "lower", 0, "R: one block-ACK observation plus one rate query"},

	{"trace.cellular_gen_ms", "ms", "lower", 0, "R: synthesise one 60 s cellular trace; moves setup_s"},
	{"trace.lookup_ns", "ns", "lower", 0, "R: NextOpportunity plus CountIn, what a trace link asks per delivery"},

	{"cc.endpoint_pkt_ns", "ns", "lower", 0, "R: Cubic send plus ACK processing over a loopback pair of wires, 1000-packet transfers (self time); moves cellular_sweep"},
	{"cc.endpoint_new_us", "us", "lower", 0, "R: construct, start and stop an endpoint; the write side: moves flow_churn's allocs and GC"},
	{"cc.sent_pkts", "count", "higher", 0, "C: Endpoint.SentPackets over declared flows (spawned flows' endpoints are not exposed)"},
	{"cc.acked_pkts", "count", "higher", 0, "C: AckedPackets likewise"},
	{"cc.retx_pkts", "count", "lower", 0, "C: RetxPackets likewise"},
	{"cc.lost_pkts", "count", "lower", 0, "C: LostPackets likewise"},
	{"cc.cwnd_updates", "count", "lower", 0, "C: ACKs processed by every endpoint, spawned ones too (CatCC events of a traced pass)"},
	{"cc.attributed_s", "s", "lower", 0, "D: cwnd_updates x endpoint_pkt_ns + flows x endpoint_new_us"},

	{"metrics.delay_add_ns", "ns", "lower", 0, "R: DelayRecorder.AddSample"},
	{"metrics.p95_query_us", "us", "lower", 0, "R: P95 of a recorder holding 100k samples"},
	{"metrics.delay_samples", "count", "lower", 0, "C: samples fed to the flows', workloads' and pooled recorders"},
	{"metrics.attributed_s", "s", "lower", 0, "D: delay_samples x delay_add_ns"},

	{"obs.emit_ns", "ns", "lower", 0, "R: one enabled trace point (mask check plus ring store); moves obs.trace_overhead_frac only"},
	{"obs.emit_disabled_ns", "ns", "lower", 0, "R: one disabled trace point (the mask check every workload pays)"},
	{"obs.counter_add_ns", "ns", "lower", 0, "R: Counter.Add"},
	{"obs.trace_events", "count", "lower", 0, "C: events recorded by the CatAll pass"},
	{"obs.trace_overhead_frac", "ratio", "lower", 0, "D: CatAll pass wall / untraced median wall - 1"},

	{"fluid.coupler_step_ns", "ns", "lower", 0, "R: one 10 ms step of a million-user on/off aggregate (self time); moves hybrid_bg only"},
	{"fluid.steps", "count", "lower", 0, "C: coupler steps, from the specs (duration / step)"},
	{"fluid.served_mb", "MB", "higher", 0, "C: BackgroundResult.ServedMB"},
	{"fluid.mean_share", "ratio", "lower", 0, "C: BackgroundResult.MeanShare"},
	{"fluid.attributed_s", "s", "lower", 0, "D: steps x coupler_step_ns"},

	{"app.flows_spawned", "count", "higher", 0, "C: WorkloadResult.Spawned"},
	{"app.flows_completed", "count", "higher", 0, "C: Completed"},
	{"app.flows_rejected", "count", "lower", 0, "C: Rejected"},
	{"app.fct_p95_ms", "ms", "lower", 0, "C: p95 flow completion time over all workloads of the run"},

	{"exp.compile_ms", "ms", "lower", 0, "R: exp.Run of a one-link, one-flow spec for 1 ms of simulated time; moves setup_s"},
	{"exp.cells", "count", "lower", 0, "C: exp.Run calls per rep"},
	{"exp.ladder_residual_frac", "ratio", "lower", 0, "D: 1 - sum of *.attributed_s / median rep wall; printed, never hidden"},

	{"runtime.gc_cycles", "1/rep", "lower", 0, "GC cycles per untraced rep"},
	{"runtime.gc_pause_ms", "ms/rep", "lower", 0, "GC pause per untraced rep"},
	{"runtime.heap_inuse_mb", "MiB", "lower", 0, "HeapInuse after the last untraced rep"},

	{"host.speed_index", "ratio", "lower", 0, "median of the run's host speed samples (1 = reference host, 1.2 = 20 % slower)"},
}
