// Command tracegen generates and inspects Mahimahi-format delivery-
// opportunity traces.
//
// Usage:
//
//	tracegen -name Verizon1 > verizon1.trace      # named synthetic trace
//	tracegen -mean 12 -sigma 0.2 -seed 7 -dur 60  # custom cellular trace
//	tracegen -const 24                            # constant 24 Mbit/s
//	tracegen -inspect verizon1.trace              # print trace statistics
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"abc/internal/sim"
	"abc/internal/trace"
)

var (
	name    = flag.String("name", "", "named synthetic trace (Verizon1..4, TMobile1..2, ATT1..2)")
	mean    = flag.Float64("mean", 0, "custom trace: mean rate in Mbit/s")
	sigma   = flag.Float64("sigma", 0.2, "custom trace: log-rate walk sigma")
	outage  = flag.Float64("outage", 0.02, "custom trace: outage probability per 100 ms")
	seed    = flag.Int64("seed", 1, "custom trace: RNG seed")
	durSec  = flag.Float64("dur", 60, "trace duration in seconds")
	constBW = flag.Float64("const", 0, "constant-rate trace in Mbit/s")
	inspect = flag.String("inspect", "", "read a trace file and print statistics")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	switch {
	case *inspect != "":
		return doInspect(*inspect, w)
	case *name != "":
		tr, err := trace.NamedCellular(*name)
		if err != nil {
			return err
		}
		_, err = tr.WriteTo(w)
		return err
	case *constBW > 0:
		tr := trace.Constant("const", *constBW*1e6)
		_, err := tr.WriteTo(w)
		return err
	case *mean > 0:
		switch {
		case !(*durSec > 0):
			return fmt.Errorf("-dur %v: a trace needs a positive duration", *durSec)
		case *durSec > math.MaxInt64/float64(sim.Second):
			return fmt.Errorf("-dur %v: beyond the simulator's clock", *durSec)
		}
		p := trace.CellParams{
			Seed:       *seed,
			Duration:   sim.FromSeconds(*durSec),
			MeanMbps:   *mean,
			Sigma:      *sigma,
			OutageProb: *outage,
		}
		if err := p.Check(); err != nil {
			return fmt.Errorf("-dur %v -mean %v: %w", *durSec, *mean, err)
		}
		_, err := trace.Cellular("custom", p).WriteTo(w)
		return err
	}
	flag.Usage()
	return fmt.Errorf("nothing to do")
}

func doInspect(path string, w io.Writer) error {
	tr, err := readTrace(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "period:        %.3f s\n", tr.Period().Seconds())
	fmt.Fprintf(w, "opportunities: %d per period\n", tr.Opportunities())
	fmt.Fprintf(w, "average rate:  %.2f Mbit/s\n", tr.AvgRateBps()/1e6)
	// One-second windowed min/max rates.
	minR, maxR := -1.0, 0.0
	for t := sim.Second; t <= tr.Period(); t += sim.Second {
		r := tr.CapacityBps(t, sim.Second) / 1e6
		if minR < 0 || r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	fmt.Fprintf(w, "1s-window min: %.2f Mbit/s\n", minR)
	fmt.Fprintf(w, "1s-window max: %.2f Mbit/s\n", maxR)
	return nil
}

// readTrace is the inspector's input path: parse a Mahimahi trace file.
func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Parse(path, f)
}
