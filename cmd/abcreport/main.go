// Command abcreport runs the full evaluation sweep — every table and
// figure — and prints an EXPERIMENTS.md-style report. Under each figure
// that carries claims (exp.Driver.Claims) it checks the paper's
// headline claims against the measured results: one row per claim with
// the paper's statement, the measured value, the band and the verdict.
// Each claim is measured at its own parameters and the report's seed,
// so its verdict is the one TestPaperClaims gives for that seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"abc/internal/exp"
	"abc/internal/obs"
	"abc/internal/prof"
	"abc/internal/sim"
)

var (
	seed        = flag.Int64("seed", 1, "simulation seed")
	fast        = flag.Bool("fast", false, "shorter runs (CI-sized)")
	pprofOut    = flag.String("pprof", "", "profile the sweep: CPU to <prefix>.cpu.pprof, heap to <prefix>.heap.pprof")
	rtTrace     = flag.String("runtime-trace", "", "write a runtime execution trace (go tool trace) to this file")
	metricsAddr = flag.String("metrics", "", "serve live sweep metrics, sampled once per simulated second, on this address (e.g. 127.0.0.1:9090 or :0) and print progress to stderr")
)

func main() {
	flag.Parse()
	stop, err := prof.Start(prof.Config{Pprof: *pprofOut, Trace: *rtTrace})
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcreport:", err)
		os.Exit(1)
	}
	var opts exp.RunOptions
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		addr, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abcreport:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[obs] abcreport: serving metrics on http://%s/metrics\n", addr)
		opts.Metrics = reg
		defer obs.StartProgress(os.Stderr, reg, 5*time.Second)()
	}
	err = run(opts)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcreport:", err)
		os.Exit(1)
	}
}

// entry is one report item: a table driver and the parameters the
// report runs it at. note tells apart two runs of the same driver.
type entry struct {
	driver, note string
	params       exp.Params
}

// section groups the entries printed under one heading.
type section struct {
	title   string
	entries []entry
}

// sections is the report, in order. Every row is a lookup into
// exp.Drivers: what an experiment runs and how its result prints live
// there, and only the selection and the durations live here.
func sections() []section {
	dur, wifiDur := 60*sim.Second, 45*sim.Second
	fig12 := exp.Params{Runs: 5}
	if *fast {
		dur, wifiDur = 20*sim.Second, 15*sim.Second
		fig12 = exp.Params{Runs: 2, Dur: 20 * sim.Second}
	}
	at := func(d sim.Time, schemes ...string) exp.Params { return exp.Params{Dur: d, Schemes: schemes} }
	return []section{
		{"Cellular corpus", []entry{{driver: "fig9", params: at(dur)}, {driver: "table1", params: at(dur)}}},
		{"Feedback-mode ablation", []entry{{driver: "fig2"}}},
		{"Additive increase and fairness", []entry{{driver: "fig3"}}},
		{"Wi-Fi estimator", []entry{{driver: "fig4"}, {driver: "fig5"}}},
		{"Non-ABC bottlenecks", []entry{{driver: "fig6"}, {driver: "fig11"}}},
		{"Multi-bottleneck paths", []entry{
			{driver: "fig8", params: at(dur, "ABC", "Cubic")},
			{driver: "markeduplink", params: at(dur, "ABC", "Cubic")},
		}},
		{"Coexistence with non-ABC flows", []entry{{driver: "fig7"}, {driver: "fig12", params: fig12}}},
		{"Wi-Fi full stack", []entry{
			{driver: "fig10", note: "one user", params: exp.Params{Dur: wifiDur, Users: 1}},
			{driver: "fig10", note: "two users", params: exp.Params{Dur: wifiDur, Users: 2}},
			{driver: "fig14", params: at(wifiDur)},
		}},
		{"Explicit schemes", []entry{{driver: "fig16", params: at(dur)}, {driver: "fig17"}}},
		{"RTT sensitivity", []entry{{driver: "fig18", params: at(dur, "ABC", "Cubic+Codel", "Cubic", "BBR")}}},
		{"Application workloads", []entry{
			{driver: "shortflows", params: at(dur, "ABC", "Cubic", "BBR")},
			{driver: "video", params: at(dur, "ABC", "Cubic", "BBR")},
			{driver: "rpc", params: at(dur, "ABC", "Cubic", "BBR")},
		}},
		{"Dynamic topology", []entry{
			{driver: "handover", params: at(dur, "ABC", "Cubic")},
			{driver: "flap", params: at(dur, "ABC", "Cubic")},
		}},
		{"Adversarial robustness", []entry{
			{driver: "targeted", params: at(dur, "ABC", "Cubic")},
			{driver: "greedy", params: at(dur, "ABC", "XCP", "RCP")},
		}},
		{"Hybrid fluid/packet", []entry{{driver: "hybrid", params: at(dur)}}},
		{"In-text experiments and Theorem 3.1", []entry{
			{driver: "jain"}, {driver: "pkabc", params: at(dur)}, {driver: "stability"},
		}},
	}
}

func run(opts exp.RunOptions) error {
	fmt.Println("# ABC reproduction report")
	for _, sec := range sections() {
		fmt.Printf("\n## %s\n", sec.title)
		for _, e := range sec.entries {
			d, ok := exp.Lookup(e.driver)
			if !ok {
				return fmt.Errorf("report names unknown driver %q", e.driver)
			}
			heading := fmt.Sprintf("### %s (%s): %s", d.Name, d.Paper, d.Desc)
			if e.note != "" {
				heading += ", " + e.note
			}
			fmt.Println(heading)
			e.params.Seed, e.params.RunOptions = *seed, opts
			v, err := d.Run(e.params)
			if err != nil {
				return fmt.Errorf("%s: %w", d.Name, err)
			}
			d.Print(os.Stdout, v)
			if err := printClaims(d, opts); err != nil {
				return err
			}
		}
	}
	return nil
}

// printClaims checks the driver's claims and prints them as a table:
// paper | measured | band | verdict.
func printClaims(d exp.Driver, opts exp.RunOptions) error {
	if len(d.Claims) == 0 {
		return nil
	}
	fmt.Println("\n| claim | paper | measured | band | verdict |\n|---|---|---|---|---|")
	for _, c := range d.Claims {
		v, err := c.Check(*seed, opts)
		if err != nil {
			return fmt.Errorf("%s claim %s: %w", d.Name, c.Name, err)
		}
		verdict := "holds"
		if !c.Holds(v) {
			verdict = "FAILS"
		}
		fmt.Printf("| %s | %s | %.3f | %s | %s |\n", c.Name, c.Paper, v, c.Band(), verdict)
	}
	fmt.Println()
	return nil
}
