// The report: `abcsim -report` runs every placement of the driver table
// (exp.Driver.Report) under the headings of exp.ReportSections and
// prints an EXPERIMENTS.md-style report. Under each result whose
// placement carries claims (exp.Placement.Claims) it checks the paper's
// headline claims on that result: one row per claim with the paper's
// statement, the value read off the result printed above it, the band
// and the verdict. Each placement runs once, so under -fast, whose
// parameters are TestPaperClaims', a verdict is the one TestPaperClaims
// gives for the report's seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"

	"abc/internal/exp"
)

var (
	reportFlag = flag.Bool("report", false, "run every table and figure of the evaluation and check the paper's claims")
	fast       = flag.Bool("fast", false, "with -report: shorter runs (CI-sized)")
)

// perRun are the flags that set one run's parameters. Each placement of
// the report sets its own, so giving one with -report is an error.
var perRun = []string{"exp", "scenario", "dur", "schemes", "users", "runs"}

// checkReportFlags rejects a flag that would be ignored: a per-run flag
// with -report, or -fast without it.
func checkReportFlags() (err error) {
	flag.Visit(func(f *flag.Flag) {
		if *reportFlag && slices.Contains(perRun, f.Name) {
			err = fmt.Errorf("-%s does not apply to -report, which sets each run's parameters", f.Name)
		} else if !*reportFlag && f.Name == "fast" {
			err = errors.New("-fast applies only to -report")
		}
	})
	return err
}

// report prints the sections to w in order. Within one, placements print
// in table order, and those that view another run (Placement.From) after
// the others, from that run's result.
func report(w io.Writer, opts exp.RunOptions) error {
	fmt.Fprintln(w, "# ABC reproduction report")
	for _, title := range exp.ReportSections {
		fmt.Fprintf(w, "\n## %s\n", title)
		// ran holds the section's results by row, for the views.
		ran := map[string]any{}
		for _, views := range []bool{false, true} {
			for _, d := range exp.Drivers {
				for _, pl := range d.Report {
					if pl.Section != title || (pl.From != "") != views {
						continue
					}
					v, err := reportRun(w, d, pl, ran, opts)
					if err != nil {
						return err
					}
					ran[d.Name] = v
				}
			}
		}
	}
	return nil
}

// reportRun prints one placement: its heading, the row's result at the
// placement's parameters (or, for a view, of the section's run it
// views), and the placement's claims read off that result as a table:
// paper | measured | band | verdict. It returns the result.
func reportRun(w io.Writer, d exp.Driver, pl exp.Placement, ran map[string]any, opts exp.RunOptions) (any, error) {
	heading := fmt.Sprintf("### %s (%s): %s", d.Name, d.Paper, d.Desc)
	if pl.Note != "" {
		heading += ", " + pl.Note
	}
	fmt.Fprintln(w, heading)
	v, err := placementResult(d, pl, ran, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	d.Print(w, v)
	if len(pl.Claims) == 0 {
		return v, nil
	}
	fmt.Fprintln(w, "\n| claim | paper | measured | band | verdict |\n|---|---|---|---|---|")
	for _, c := range pl.Claims {
		m := c.Read(v)
		verdict := "holds"
		if !c.Holds(m) {
			verdict = "FAILS"
		}
		fmt.Fprintf(w, "| %s | %s | %.3f | %s | %s |\n", c.Name, c.Paper, m, c.Band(), verdict)
	}
	fmt.Fprintln(w)
	return v, nil
}

// placementResult runs the row at the placement's parameters, or
// applies the row's Of to the section's result of the row it views
// (TestReportViews pins that every view has both).
func placementResult(d exp.Driver, pl exp.Placement, ran map[string]any, opts exp.RunOptions) (any, error) {
	if pl.From != "" {
		return d.Of(ran[pl.From]), nil
	}
	p := pl.Full
	if *fast {
		p = pl.Fast
	}
	p.Seed, p.RunOptions = *seed, opts
	return d.Run(p)
}
