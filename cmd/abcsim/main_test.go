package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
