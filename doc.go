// Package abc is a from-scratch Go reproduction of "ABC: A Simple
// Explicit Congestion Control Protocol for Wireless Networks" (Goyal et
// al., NSDI 2020): the Accel-Brake Control protocol, every substrate it
// needs (a deterministic discrete-event network simulator, Mahimahi-style
// trace emulation, an 802.11n MAC model, AQMs) and every baseline it is
// evaluated against (Cubic, Vegas, Copa, BBR, PCC-Vivace, Sprout, Verus,
// XCP, RCP, VCP), plus one table of experiment drivers (exp.Drivers)
// that regenerates each table and figure of the paper's evaluation:
// abcsim -exp runs an entry, abcsim -report the entries placed in the
// report, and the golden corpus and the driver-table test run them all.
//
// Experiments are scenarios over a topology graph (internal/topo): a
// directed graph of junction nodes and edges, each edge an optional
// bottleneck link (trace-, rate- or Wi-Fi-modelled behind one topo.Link
// interface), an impairment stage (jitter, random/burst loss) and a
// fixed propagation delay. Nodes forward packets by
// per-(flow, direction) forwarding tables, mutable mid-run through
// topo.Router — so routes can change while packets are in flight
// (handover, flapping links, rate steps), with a conservation
// guarantee: in-flight packets on abandoned edges drain and are counted,
// never duplicated or silently lost. Every flow's data path and ACK
// path are explicit routes over the graph, so asymmetric paths,
// congested reverse (ACK) links, per-flow RTTs and mid-path cross
// traffic are all plain specs (internal/exp.Spec, in a chain notation
// that is shorthand for the general mesh notation; exp.Run lowers the
// first to the second and compiles both through one pipeline) — or
// declarative JSON scenario files (cmd/abcsim -scenario, examples/scenarios/), including
// a timed "events" timeline (reroute, set_rate, link_down/link_up,
// attack/clear_attack). Schemes and queueing disciplines self-register
// (cc.Register, qdisc.Register) from their own packages, so the harness
// constructs nothing by name.
//
// On top of the flow layer sits an application-workload subsystem
// (internal/app): open-loop arrival processes spawn finite flows mid-run
// with fixed or heavy-tailed sizes (or replay a recorded log) and report
// flow-completion times and slowdowns, and closed-loop clients — an ABR
// video player with a playback-buffer model and QoE summary, and a
// request-response RPC client — drive persistent flows through any
// registered scheme (exp.Spec.Workloads, FlowSpec.App, scenario
// "workloads"/"app" clauses; drivers abcsim -exp shortflows|video|rpc).
//
// The simulation fast path is engineered to be allocation-free in steady
// state: the event core keeps event payloads in a recycled slot slab
// under a 4-ary heap of keys, and queues the in-flight packets of every
// wire with the same delay on one FIFO line behind one heap entry
// (sim.Line, internal/sim), a run's packets
// cycle through the run's arena, slabs with a free list, with
// single-owner release semantics (internal/packet — see packet.Get for
// the ownership rules), a trace link keeps its place in
// its delivery trace between queries (trace.Cursor) and a sender keeps
// its outstanding packets in a ring indexed by sequence number
// (cc.Endpoint), so the per-packet path neither searches nor hashes,
// per-packet delay statistics
// stream into fixed-memory log-linear histograms, one array increment
// a sample (internal/metrics), and the multi-run figure drivers fan independent
// (trace, scheme, seed) cells across a bounded worker pool
// (internal/exp) with byte-identical results to a sequential sweep.
// CI guards the zero-alloc property against regression
// (scripts/check_allocs.sh, bench_thresholds.txt).
//
// See DESIGN.md for the system inventory, the topology/registry
// architecture and fast path (§1–§2) and the experiment index mapping
// each -exp name to its paper figure or table (§3).
package abc
