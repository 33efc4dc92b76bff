// Command abcsim runs any of the paper's experiments by ID — or any
// declarative scenario file — and prints the corresponding table rows or
// series.
//
// Usage:
//
//	abcsim -exp list
//	abcsim -exp fig1 [-seed 1] [-dur 60]
//	abcsim -exp fig9 -schemes ABC,Cubic,Cubic+Codel
//	abcsim -exp schemes                      # registered schemes/qdiscs
//	abcsim -scenario examples/scenarios/congested-uplink.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"abc/internal/exp"
	"abc/internal/prof"
	"abc/internal/sim"
)

var (
	expName  = flag.String("exp", "list", "experiment id (use 'list' to enumerate)")
	seed     = flag.Int64("seed", 1, "simulation seed")
	durSec   = flag.Float64("dur", 60, "run duration in seconds (where applicable)")
	schemes  = flag.String("schemes", "", "comma-separated scheme subset (where applicable)")
	users    = flag.Int("users", 1, "number of Wi-Fi users (fig10)")
	runs     = flag.Int("runs", 3, "runs per point (fig12)")
	scenario = flag.String("scenario", "", "path to a declarative scenario file (overrides -exp)")
	pprofOut = flag.String("pprof", "", "profile the run: CPU to <prefix>.cpu.pprof, heap to <prefix>.heap.pprof")
	rtTrace  = flag.String("runtime-trace", "", "write a runtime execution trace (go tool trace) to this file")
)

func main() {
	flag.Parse()
	stop, err := prof.Start(prof.Config{Pprof: *pprofOut, Trace: *rtTrace})
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcsim:", err)
		os.Exit(1)
	}
	opts, obsDone, err := setupObs("abcsim")
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcsim:", err)
		os.Exit(1)
	}
	err = run(opts)
	if oerr := obsDone(); err == nil {
		err = oerr
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcsim:", err)
		os.Exit(1)
	}
}

// params maps the flags onto the driver table's parameters.
func params(opts exp.RunOptions) exp.Params {
	p := exp.Params{
		RunOptions: opts,
		Seed:       *seed,
		Dur:        sim.FromSeconds(*durSec),
		Users:      *users,
		Runs:       *runs,
	}
	if *schemes != "" {
		p.Schemes = strings.Split(*schemes, ",")
	}
	return p
}

func run(opts exp.RunOptions) error {
	if *scenario != "" {
		return runScenarioFile(opts, *scenario)
	}
	if *expName == "list" {
		for _, d := range exp.Drivers {
			fmt.Printf("%-13s %-17s %s\n", d.Name, d.Paper, d.Desc)
		}
		return nil
	}
	d, ok := exp.Lookup(*expName)
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -exp list)", *expName)
	}
	v, err := d.Run(params(opts))
	if err != nil {
		return err
	}
	d.Print(os.Stdout, v)
	return nil
}

func runScenarioFile(opts exp.RunOptions, path string) error {
	sc, err := exp.LoadScenario(path)
	if err != nil {
		return err
	}
	res, pooled, err := opts.Run(sc.Spec)
	if err != nil {
		return err
	}
	if sc.Name != "" {
		fmt.Printf("## %s\n", sc.Name)
	}
	exp.PrintResult(os.Stdout, res, pooled)
	return nil
}
