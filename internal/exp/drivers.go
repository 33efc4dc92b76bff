// The experiment catalogue: one table, Drivers, that every consumer
// iterates — `abcsim -exp`, abcreport's sections, the golden corpus and
// the driver-table test. A new experiment is one entry here: a name, the
// paper artefact it reproduces, a run function that turns the CLI's
// parameters into a JSON-serializable result, and a print function that
// renders that result in a fixed order. A row names its experiment's
// func(Params) (R, error) directly, and that function is the only way
// into the experiment: the package exports no per-figure runner.
package exp

import (
	"fmt"
	"io"
	"strings"

	"abc/internal/cc"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// Params are the knobs a driver can take: exactly abcsim's flags. A
// driver reads the ones that apply to it and ignores the rest; the zero
// value of each means the driver's own default. The embedded RunOptions
// (-trace-out, -metrics) observe every run the driver makes: a driver
// runs each Spec with p.Run.
type Params struct {
	RunOptions
	Seed    int64    // -seed
	Dur     sim.Time // -dur: run length, for drivers that are not fixed-length
	Schemes []string // -schemes: the comparison set
	Users   int      // -users: Wi-Fi users (fig10)
	Runs    int      // -runs: runs per point (fig12)
}

// Driver is one experiment: what it is called, what it reproduces, how
// to run it and how to print what it returns.
type Driver struct {
	// Name is the `-exp` id; Paper the artefact reproduced ("ext." for
	// experiments beyond the paper's evaluation); Desc what is reported.
	Name, Paper, Desc string
	// Run executes the experiment. The result marshals to JSON (the
	// golden corpus digests it) and is what Print accepts.
	Run func(Params) (any, error)
	// Print renders a Run result. Output order is fixed, so equal
	// results print equal bytes.
	Print func(io.Writer, any)
}

// drv builds a table entry from a typed run/print pair.
func drv[R any](name, paper, desc string, run func(Params) (R, error), print func(io.Writer, R)) Driver {
	return Driver{
		Name: name, Paper: paper, Desc: desc,
		Run:   func(p Params) (any, error) { return run(p) },
		Print: func(w io.Writer, v any) { print(w, v.(R)) },
	}
}

// Lookup returns the named driver.
func Lookup(name string) (Driver, bool) {
	for _, d := range Drivers {
		if d.Name == name {
			return d, true
		}
	}
	return Driver{}, false
}

// registered lists what `-schemes` and scenario files can name.
type registered struct{ Schemes, Qdiscs []string }

// listRegistered is the schemes row: what the registries hold.
func listRegistered(Params) (registered, error) {
	return registered{cc.SchemeNames(), qdisc.Kinds()}, nil
}

func printRegistered(w io.Writer, r registered) {
	fmt.Fprintln(w, "schemes:", strings.Join(r.Schemes, " "))
	fmt.Fprintln(w, "qdiscs: ", strings.Join(r.Qdiscs, " "))
}

// Drivers is the catalogue, in the order `abcsim -exp list` prints it:
// the paper's table and figures, its in-text experiments, then the
// scenarios that extend past its evaluation.
var Drivers = []Driver{
	drv("table1", "Table 1 (§1)", "summary: normalized throughput/delay vs ABC", table1, printTable1),
	drv("fig1", "Fig. 1", "time series: Cubic, Verus, Cubic+Codel, ABC on LTE", fig1Timeseries, printFig1),
	drv("fig2", "Fig. 2", "dequeue- vs enqueue-rate feedback", fig2FeedbackMode, printFig2),
	drv("fig3", "Fig. 3", "fairness among ABC flows with/without AI", fig3Both, printFig3),
	drv("fig4", "Fig. 4", "Wi-Fi inter-ACK time vs A-MPDU size", fig4InterACK, printFig4),
	drv("fig5", "Fig. 5", "Wi-Fi link-rate prediction accuracy", fig5RatePrediction, printFig5),
	drv("fig6", "Fig. 6", "coexistence with a non-ABC wired bottleneck", fig6NonABCBottleneck, printFig6),
	drv("fig7", "Fig. 7", "ABC + Cubic on a dual-queue bottleneck", fig7Coexistence, printFig7),
	drv("fig8", "Fig. 8a-c", "throughput/delay scatter (down, up, two-hop)", fig8Panels, printFig8),
	drv("fig9", "Fig. 9", "utilization and p95 delay across 8 traces", cellularBars, printBars),
	drv("fig10", "Fig. 10", "Wi-Fi comparison (alternating MCS)", fig10, printSummaries),
	drv("fig11", "Fig. 11", "tracking with on-off cross traffic", fig11CrossTraffic, printFig11),
	drv("fig12", "Fig. 12", "max-min vs zombie-list weight policy", fig12Both, printFig12),
	drv("fig13", "Fig. 13", "application-limited ABC flows", fig13, printFig13),
	drv("fig14", "Fig. 14 (App. B)", "Wi-Fi comparison (Brownian MCS walk)", fig14, printSummaries),
	drv("fig15", "Fig. 15 (App. C)", "mean per-packet delay across traces", cellularBars, printMeanDelay),
	drv("fig16", "Fig. 16 (App. D)", "ABC vs explicit schemes (XCP/XCPw/RCP/VCP)", fig16, printBars),
	drv("fig17", "Fig. 17 (App. D)", "square-wave adaptation: ABC vs RCP vs XCPw",
		fig17SquareWave, printFig17),
	drv("fig18", "Fig. 18 (App. E)", "RTT sensitivity sweep", fig18RTTSweep, printFig18),
	drv("jain", "§6.5", "Jain fairness index, 2-32 flows", jainSweep, printJain),
	drv("ablations", "§3", "ABC parameter sweeps (dt, delta, eta, token limit, window)",
		ablations, printAblations),
	drv("proxied", "§5.1.2", "proxied-network ECN encoding vs NS-bit encoding", proxied, printSummaries),
	drv("pkabc", "§6.6", "perfect-knowledge ABC", pkABC, printPKABC),
	drv("stability", "Thm. 3.1", "stability boundary sweep", stabilityRegion, printStability),
	drv("uplink", "ext.", "asymmetric cellular: congested uplink carrying the ACKs",
		uplinkCongestedACK, printUplink),
	drv("mesh", "ext.", "shared-junction mesh: disjoint multi-hop paths through one hub",
		meshSharedJunction, printMesh),
	drv("markeduplink", "ext.", "downlink ACKs re-marked by an ABC router on the uplink edge",
		markedUplink, printMarkedUplink),
	drv("heterortt", "ext.", "heterogeneous-RTT fairness sweep", heteroRTTSweep, printHeteroRTT),
	drv("lossy", "ext.", "lossy-link robustness sweep (random + bursty loss)", lossyBoth, printLossy),
	drv("handover", "ext.", "mid-run base-station handover via forwarding-table reroute",
		handover, printHandover),
	drv("flap", "ext.", "flapping link: timed outages on the bottleneck edge", linkFlap, printFlap),
	drv("autoroute", "ext.", "policy-driven failover/failback across a base-station outage",
		autoRoute, printAutoRoute),
	drv("flapstorm", "ext.", "shortest-path routing under a flap storm with a sub-convergence blip",
		flapStorm, printFlapStorm),
	drv("targeted", "ext.", "targeted attack on one flow: victim vs bystander degradation",
		targeted, printTargeted),
	drv("greedy", "ext.", "greedy sender ignoring brakes: stolen bandwidth per scheme", greedy, printGreedy),
	drv("shortflows", "ext.", "open-loop web-like short flows: FCT and slowdown per scheme",
		shortFlows, printShortFlows),
	drv("video", "ext.", "ABR video client: bitrate/rebuffer/switch QoE per scheme", videoExp, printVideo),
	drv("rpc", "ext.", "request-response RPC clients vs a bulk flow: per-call FCT", rpcExp, printRPC),
	drv("hybrid", "ext.", "fluid background scaling 0 -> 1M users vs packet-level ABR/RPC foreground",
		hybrid, printHybrid),
	drv("schemes", "-", "registered schemes and qdisc kinds", listRegistered, printRegistered),
}
