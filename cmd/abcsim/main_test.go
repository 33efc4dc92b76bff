package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"

	"abc/internal/exp"
)

// TestReportRejectsIgnoredFlags runs abcsim's main in a child process
// per case: with -report a flag that sets one run's parameters is an
// error, and so is -fast without -report. Each exits 2 before anything
// runs.
func TestReportRejectsIgnoredFlags(t *testing.T) {
	if args, ok := os.LookupEnv("ABCSIM_TEST_ARGS"); ok {
		os.Args = append([]string{"abcsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cases := map[string]string{
		"-report -exp fig9":          "-exp does not apply to -report",
		"-report -scenario x.json":   "-scenario does not apply to -report",
		"-report -fast -dur 3":       "-dur does not apply to -report",
		"-report -schemes ABC,Cubic": "-schemes does not apply to -report",
		"-report -users 2":           "-users does not apply to -report",
		"-report -runs 1":            "-runs does not apply to -report",
		"-fast -exp list":            "-fast applies only to -report",
	}
	for args, want := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestReportRejectsIgnoredFlags$")
		cmd.Env = append(os.Environ(), "ABCSIM_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), want) {
			t.Errorf("abcsim %s: err %v, output %q; want exit 2 and %q", args, err, out, want)
		}
	}
}

// TestReportRunsEachPlacementOnce runs `abcsim -report -fast` with every
// driver's Run counted per parameters and every claim's Read watched:
// each (driver, Params) runs once, and each claim reads the result
// printed just above its verdict row.
func TestReportRunsEachPlacementOnce(t *testing.T) {
	drivers := exp.Drivers
	t.Cleanup(func() { exp.Drivers, *fast = drivers, false })
	*fast = true
	runs := map[string]int{}
	var printed any
	claims := 0
	exp.Drivers = nil
	for _, d := range drivers {
		d, run, print := d, d.Run, d.Print
		d.Run = func(p exp.Params) (any, error) {
			runs[fmt.Sprintf("%s %+v", d.Name, p)]++
			return run(p)
		}
		d.Print = func(w io.Writer, v any) {
			printed = v
			print(w, v)
		}
		d.Report = slices.Clone(d.Report)
		for i, pl := range d.Report {
			pl.Claims = slices.Clone(pl.Claims)
			for j, c := range pl.Claims {
				c, read := c, c.Read
				pl.Claims[j].Read = func(v any) float64 {
					if !reflect.DeepEqual(v, printed) {
						t.Errorf("%s/%s reads a result other than the one printed above it", d.Name, c.Name)
					}
					return read(v)
				}
				claims++
			}
			d.Report[i] = pl
		}
		exp.Drivers = append(exp.Drivers, d)
	}
	var out bytes.Buffer
	if err := report(&out, exp.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("the report ran nothing")
	}
	for run, n := range runs {
		if n != 1 {
			t.Errorf("%s: %d runs, want 1", run, n)
		}
	}
	if rows := strings.Count(out.String(), " | holds |\n") + strings.Count(out.String(), " | FAILS |\n"); rows != claims {
		t.Errorf("%d verdict rows for %d claims", rows, claims)
	}
}
