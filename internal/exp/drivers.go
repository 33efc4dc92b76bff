// The experiment catalogue: one table, Drivers, that every consumer
// iterates — `abcsim -exp`, `abcsim -report`, the golden corpus, the
// driver-table test and the claims test. A new experiment is one entry
// here: a name, the paper artefact it reproduces, a run function that
// turns the CLI's parameters into a JSON-serializable result, a print
// function that renders that result in a fixed order, and where the
// report prints it, with the paper's claims that each printed result
// is checked against. A row names its experiment's func(Params) (R, error)
// directly, and that function is the only way into the experiment: the
// package exports no per-figure runner.
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
// to run it, how to print what it returns and where the report runs it.
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
	// Of, set on a row whose result is a pure function of another
	// row's (built by view), computes it from that row's result: Run is
	// the other row's run followed by Of.
	Of func(any) any
	// Report places the row's runs in `abcsim -report`; a row without
	// one is not in the report.
	Report []Placement
}

// Placement is one run of a driver in the report: the section it prints
// under, the parameters it runs at and the paper's claims its result is
// checked against. The report prints the run's result through the row's
// Print, then reads each claim off that result.
type Placement struct {
	// Section is the heading the run prints under, one of
	// ReportSections.
	Section string
	// Note, if set, follows the run's heading: it tells two runs of one
	// driver apart.
	Note string
	// Full and Fast are the run's parameters in the full report and
	// under -fast; the report sets the seed and the run options. A
	// placement with claims is what TestPaperClaims runs, at Fast.
	Full, Fast Params
	// Claims are the paper's statements read off this run's result,
	// each with the band its measured value must lie in (claims.go).
	Claims []Claim
	// From, if set, names the row whose run in the same section this
	// placement views: the report hands that run's result to the row's
	// Of instead of running again (Full and Fast are unused), and
	// prints it after the section's other runs, which otherwise print
	// in table order. table1 follows the fig9 bars it summarises.
	From string
}

// ReportSections are the report's headings, in the order it prints
// them. Each holds the placements that name it.
var ReportSections = []string{
	"Cellular corpus", "Feedback-mode ablation", "Router parameter sweeps", "Additive increase and fairness", "Wi-Fi estimator",
	"Non-ABC bottlenecks", "Multi-bottleneck paths", "Coexistence with non-ABC flows", "Wi-Fi full stack",
	"Explicit schemes", "RTT sensitivity", "Application workloads", "Dynamic topology",
	"Adversarial robustness", "Hybrid fluid/packet", "In-text experiments and Theorem 3.1",
}

// in places the row in the report under section: one run per
// placement given, or one at the driver's defaults if none is.
func (d Driver) in(section string, runs ...Placement) Driver {
	if len(runs) == 0 {
		runs = []Placement{{}}
	}
	for i := range runs {
		runs[i].Section = section
	}
	d.Report = runs
	return d
}

// timed is a run for the report's duration (60 s, 20 s under -fast) on
// schemes, or on the driver's own set if none are given.
func timed(schemes ...string) Placement {
	return Placement{
		Full: Params{Dur: 60 * sim.Second, Schemes: schemes},
		Fast: Params{Dur: 20 * sim.Second, Schemes: schemes},
	}
}

// checks returns the placement with claims read off its result.
func (pl Placement) checks(claims ...Claim) Placement {
	pl.Claims = claims
	return pl
}

// wifiTimed is a Wi-Fi run for users: 45 s, 15 s under -fast.
func wifiTimed(note string, users int) Placement {
	return Placement{
		Note: note,
		Full: Params{Dur: 45 * sim.Second, Users: users},
		Fast: Params{Dur: 15 * sim.Second, Users: users},
	}
}

// drv builds a table entry from a typed run/print pair.
func drv[R any](name, paper, desc string, run func(Params) (R, error), print func(io.Writer, R)) Driver {
	return Driver{
		Name: name, Paper: paper, Desc: desc,
		Run:   func(p Params) (any, error) { return run(p) },
		Print: func(w io.Writer, v any) { print(w, v.(R)) },
	}
}

// view builds the entry of a row whose result is of applied to base's:
// Run runs base and applies of, and Of applies it to a result of base
// the caller already has.
func view[B, R any](name, paper, desc string, base func(Params) (B, error), of func(B) R, print func(io.Writer, R)) Driver {
	d := drv(name, paper, desc, func(p Params) (R, error) {
		b, err := base(p)
		if err != nil {
			var zero R
			return zero, err
		}
		return of(b), nil
	}, print)
	d.Of = func(v any) any { return of(v.(B)) }
	return d
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
	view("table1", "Table 1 (§1)", "summary: normalized throughput/delay vs ABC", cellularBars, SummaryTable, printTable1).
		in("Cellular corpus", Placement{From: "fig9"}),
	drv("fig1", "Fig. 1", "time series: Cubic, Verus, Cubic+Codel, ABC on LTE", fig1Timeseries, printFig1),
	drv("fig2", "Fig. 2", "dequeue- vs enqueue-rate feedback", fig2FeedbackMode, printFig2).
		in("Feedback-mode ablation"),
	drv("fig3", "Fig. 3", "fairness among ABC flows with/without AI", fig3Both, printFig3).
		in("Additive increase and fairness", Placement{}.checks(fig3Claim)),
	drv("fig4", "Fig. 4", "Wi-Fi inter-ACK time vs A-MPDU size", fig4InterACK, printFig4).
		in("Wi-Fi estimator", Placement{}.checks(fig4Claim)),
	drv("fig5", "Fig. 5", "Wi-Fi link-rate prediction accuracy", fig5RatePrediction, printFig5).
		in("Wi-Fi estimator", Placement{}.checks(fig5Claim)),
	drv("fig6", "Fig. 6", "coexistence with a non-ABC wired bottleneck", fig6NonABCBottleneck, printFig6).
		in("Non-ABC bottlenecks"),
	drv("fig7", "Fig. 7", "ABC + Cubic on a dual-queue bottleneck", fig7Coexistence, printFig7).
		in("Coexistence with non-ABC flows", Placement{}.checks(fig7Claim)),
	drv("fig8", "Fig. 8a-c", "throughput/delay scatter (down, up, two-hop)", fig8Panels, printFig8).
		in("Multi-bottleneck paths", timed("ABC", "Cubic").checks(fig8Claim)),
	drv("fig9", "Fig. 9", "utilization and p95 delay across 8 traces", cellularBars, printBars).
		in("Cellular corpus", timed().checks(fig9Claim)),
	drv("fig10", "Fig. 10", "Wi-Fi comparison (alternating MCS)", fig10, printSummaries).
		in("Wi-Fi full stack", wifiTimed("one user", 1), wifiTimed("two users", 2)),
	drv("fig11", "Fig. 11", "tracking with on-off cross traffic", fig11CrossTraffic, printFig11).
		in("Non-ABC bottlenecks"),
	drv("fig12", "Fig. 12", "max-min vs zombie-list weight policy", fig12Both, printFig12).
		in("Coexistence with non-ABC flows",
			Placement{Full: Params{Runs: 5}, Fast: Params{Runs: 2, Dur: 25 * sim.Second}}.checks(fig12Claim)),
	drv("fig13", "Fig. 13", "application-limited ABC flows", fig13, printFig13).
		in("Application workloads", timed().checks(fig13Claim)),
	drv("fig14", "Fig. 14 (App. B)", "Wi-Fi comparison (Brownian MCS walk)", fig14, printSummaries).
		in("Wi-Fi full stack", wifiTimed("", 0)),
	drv("fig15", "Fig. 15 (App. C)", "mean per-packet delay across traces", cellularBars, printMeanDelay),
	drv("fig16", "Fig. 16 (App. D)", "ABC vs explicit schemes (XCP/XCPw/RCP/VCP)", fig16, printBars).
		in("Explicit schemes", timed()),
	drv("fig17", "Fig. 17 (App. D)", "square-wave adaptation: ABC vs RCP vs XCPw",
		fig17SquareWave, printFig17).in("Explicit schemes"),
	drv("fig18", "Fig. 18 (App. E)", "RTT sensitivity sweep", fig18RTTSweep, printFig18).
		in("RTT sensitivity", timed("ABC", "Cubic+Codel", "Cubic", "BBR").checks(fig18Claim, fig18UtilClaim)),
	drv("jain", "§6.5", "Jain fairness index, 2-32 flows", jainSweep, printJain).
		in("In-text experiments and Theorem 3.1", Placement{}.checks(jainClaim)),
	drv("ablations", "§3", "ABC parameter sweeps (dt, delta, eta, token limit, window)",
		ablations, printAblations).in("Router parameter sweeps", timed().checks(ablationClaim)),
	drv("proxied", "§5.1.2", "proxied-network ECN encoding vs NS-bit encoding", proxied, printSummaries).
		in("Non-ABC bottlenecks", timed().checks(proxiedClaim)),
	drv("pkabc", "§6.6", "perfect-knowledge ABC", pkABC, printPKABC).
		in("In-text experiments and Theorem 3.1",
			Placement{Full: Params{Dur: 60 * sim.Second}, Fast: Params{Dur: 30 * sim.Second}}.checks(pkabcClaim)),
	drv("stability", "Thm. 3.1", "stability boundary sweep and Eq. 13 packet check", stabilityRegion, printStability).
		in("In-text experiments and Theorem 3.1", Placement{}.checks(eq13Claim)),
	drv("uplink", "ext.", "asymmetric cellular: congested uplink carrying the ACKs",
		uplinkCongestedACK, printUplink),
	drv("mesh", "ext.", "shared-junction mesh: disjoint multi-hop paths through one hub",
		meshSharedJunction, printMesh),
	drv("markeduplink", "ext.", "downlink ACKs re-marked by an ABC router on the uplink edge",
		markedUplink, printMarkedUplink).
		in("Multi-bottleneck paths", Placement{
			Full: Params{Dur: 60 * sim.Second, Schemes: []string{"ABC", "Cubic"}},
			Fast: Params{Dur: 12 * sim.Second, Schemes: []string{"ABC", "Cubic"}},
		}.checks(markedUplinkClaim)),
	drv("heterortt", "ext.", "heterogeneous-RTT fairness sweep", heteroRTTSweep, printHeteroRTT),
	drv("lossy", "ext.", "lossy-link robustness sweep (random + bursty loss)", lossyBoth, printLossy),
	drv("handover", "ext.", "mid-run base-station handover via forwarding-table reroute",
		handover, printHandover).in("Dynamic topology", timed("ABC", "Cubic")),
	drv("flap", "ext.", "flapping link: timed outages on the bottleneck edge", linkFlap, printFlap).
		in("Dynamic topology", timed("ABC", "Cubic")),
	drv("autoroute", "ext.", "policy-driven failover/failback across a base-station outage",
		autoRoute, printAutoRoute),
	drv("flapstorm", "ext.", "shortest-path routing under a flap storm with a sub-convergence blip",
		flapStorm, printFlapStorm),
	drv("targeted", "ext.", "targeted attack on one flow: victim vs bystander degradation",
		targeted, printTargeted).in("Adversarial robustness", timed("ABC", "Cubic")),
	drv("greedy", "ext.", "greedy sender ignoring brakes: stolen bandwidth per scheme", greedy, printGreedy).
		in("Adversarial robustness", timed("ABC", "XCP", "RCP")),
	drv("shortflows", "ext.", "open-loop web-like short flows: FCT and slowdown per scheme",
		shortFlows, printShortFlows).in("Application workloads", timed("ABC", "Cubic", "BBR")),
	drv("video", "ext.", "ABR video client: bitrate/rebuffer/switch QoE per scheme", videoExp, printVideo).
		in("Application workloads", timed("ABC", "Cubic", "BBR")),
	drv("rpc", "ext.", "request-response RPC clients vs a bulk flow: per-call FCT", rpcExp, printRPC).
		in("Application workloads", timed("ABC", "Cubic", "BBR")),
	drv("hybrid", "ext.", "fluid background scaling 0 -> 1M users vs packet-level ABR/RPC foreground",
		hybrid, printHybrid).in("Hybrid fluid/packet", timed()),
	drv("schemes", "-", "registered schemes and qdisc kinds", listRegistered, printRegistered),
}
