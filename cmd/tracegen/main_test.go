package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abc/internal/sim"
	"abc/internal/trace"
)

// namedTraces is the generator's full catalogue.
var namedTraces = []string{
	"Verizon1", "Verizon2", "Verizon3", "Verizon4",
	"TMobile1", "TMobile2", "ATT1", "ATT2",
}

// writeTraceFile generates a trace and writes it in Mahimahi format.
func writeTraceFile(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), tr.Name+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestNamedTraceRoundTrip: every named trace the generator can emit must
// re-read through the inspector path with identical mean-rate and
// duration statistics (the Mahimahi format is millisecond-exact, and the
// named traces are millisecond-aligned).
func TestNamedTraceRoundTrip(t *testing.T) {
	for _, name := range namedTraces {
		orig, err := trace.NamedCellular(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := readTrace(writeTraceFile(t, orig))
		if err != nil {
			t.Fatalf("%s: inspector failed to re-read generated trace: %v", name, err)
		}
		if got.Period() != orig.Period() {
			t.Errorf("%s: duration changed across the round trip: %v != %v", name, got.Period(), orig.Period())
		}
		if got.Opportunities() != orig.Opportunities() {
			t.Errorf("%s: opportunity count changed: %d != %d", name, got.Opportunities(), orig.Opportunities())
		}
		if g, w := got.AvgRateBps(), orig.AvgRateBps(); g != w {
			t.Errorf("%s: mean rate changed: %.0f != %.0f bps", name, g, w)
		}
	}
}

// TestCustomAndConstTraceRoundTrip covers the generator's -mean and
// -const paths: the re-read mean rate must match the requested
// parameters (to the tolerance the stochastic model gives the original).
func TestCustomAndConstTraceRoundTrip(t *testing.T) {
	konst := trace.Constant("const", 24e6)
	got, err := readTrace(writeTraceFile(t, konst))
	if err != nil {
		t.Fatal(err)
	}
	if g := got.AvgRateBps(); math.Abs(g-24e6)/24e6 > 0.01 {
		t.Errorf("const trace mean rate %.0f bps, want 24e6 within 1%%", g)
	}

	custom := trace.Cellular("custom", trace.CellParams{
		Seed: 7, Duration: 60 * sim.Second, MeanMbps: 12, Sigma: 0.2, OutageProb: 0.02,
	})
	got, err = readTrace(writeTraceFile(t, custom))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.AvgRateBps(), custom.AvgRateBps(); g != w {
		t.Errorf("custom trace mean rate changed across round trip: %.0f != %.0f bps", g, w)
	}
	if got.Period() != custom.Period() {
		t.Errorf("custom trace duration changed: %v != %v", got.Period(), custom.Period())
	}
}

// TestInspectOutput exercises doInspect end to end on a generated file.
func TestInspectOutput(t *testing.T) {
	orig, err := trace.NamedCellular("Verizon1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doInspect(writeTraceFile(t, orig), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"period:", "opportunities:", "average rate:", "1s-window min:", "1s-window max:"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "period:        60.000 s") {
		t.Errorf("inspect did not report the 60 s period:\n%s", out)
	}
}

// TestRunFlagPaths drives the flag-dispatched run() itself for the
// generator paths, so the command wiring has coverage too.
func TestRunFlagPaths(t *testing.T) {
	defer func() { *name, *constBW, *inspect, *mean, *durSec = "", 0, "", 0, 60 }()
	*name = "ATT1"
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Parse("att1", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("run -name output does not parse: %v", err)
	}
	want, _ := trace.NamedCellular("ATT1")
	if tr.AvgRateBps() != want.AvgRateBps() {
		t.Errorf("run -name ATT1 mean rate %.0f, want %.0f", tr.AvgRateBps(), want.AvgRateBps())
	}

	*name = ""
	*inspect = writeTraceFile(t, want)
	buf.Reset()
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "average rate:") {
		t.Errorf("run -inspect produced no statistics:\n%s", buf.String())
	}

	// -mean: -dur must be positive and within the loop bound that
	// trace.Generator holds synthetic traces to; a trace shorter than the
	// walk's 100 ms step is fine.
	*inspect, *mean = "", 10
	for _, c := range []struct {
		dur  float64
		want string // "" for a trace of dur seconds
	}{
		{0.05, ""},
		{2, ""},
		{0, "positive duration"},
		{-3, "positive duration"},
		{math.NaN(), "positive duration"},
		{5000, "at most 4194304 ms"},
		{1300, "4194304 packets"},
		{1e300, "beyond the simulator's clock"},
	} {
		*durSec = c.dur
		buf.Reset()
		err := run(&buf)
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run -mean 10 -dur %v: error %v, want one saying %q", c.dur, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("run -mean 10 -dur %v: %v", c.dur, err)
			continue
		}
		if tr, err := trace.Parse("custom", bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("run -mean 10 -dur %v output does not parse: %v", c.dur, err)
		} else if tr.Period() != sim.FromSeconds(c.dur) {
			t.Errorf("run -mean 10 -dur %v: period %v", c.dur, tr.Period())
		}
	}

	// -const below 6 kbit/s: one opportunity a period, at the true rate.
	*mean, *constBW = 0, 0.004
	buf.Reset()
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	if tr, err := trace.Parse("const", bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("run -const 0.004 output does not parse: %v", err)
	} else if r := tr.AvgRateBps(); r != 4000 {
		t.Errorf("run -const 0.004: %.0f bit/s, want 4000", r)
	}
}
