// Observability flags: a Prometheus-style /metrics endpoint with a
// periodic stderr progress line, and a flight-recorder trace dumped to a
// file after the run. Both default off; setupObs turns them into the
// exp.RunOptions every run of this process gets. Neither perturbs
// results: tracing and metric sampling are passive by construction
// (golden digests are identical with both enabled).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"abc/internal/exp"
	"abc/internal/obs"
)

var (
	metricsAddr = flag.String("metrics", "", "serve live run metrics, sampled once per simulated second, on this address (e.g. 127.0.0.1:9090 or :0) and print progress to stderr")
	traceOut    = flag.String("trace-out", "", "record a flight-recorder trace and dump it to this file after the run (one JSON object per event and line)")
	traceMask   = flag.String("trace-mask", "all", "trace categories: comma list of packet,mark,route,link,attack,cc,hop, or 'all'")
	traceCap    = flag.Int("trace-cap", 1<<20, "flight-recorder ring capacity in events (oldest events overwritten)")
)

// setupObs arms the observability flags: it returns the options every
// run gets and a teardown that stops the progress line and writes the
// trace dump. The returned error from teardown is the dump's write
// error, if any.
func setupObs() (opts exp.RunOptions, teardown func() error, err error) {
	stopProgress := func() {}
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		addr, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return opts, nil, err
		}
		fmt.Fprintf(os.Stderr, "[obs] abcsim: serving metrics on http://%s/metrics\n", addr)
		opts.Metrics = reg
		stopProgress = obs.StartProgress(os.Stderr, reg, 2*time.Second)
	}
	if *traceOut == "" {
		return opts, func() error { stopProgress(); return nil }, nil
	}
	mask, err := obs.ParseMask(*traceMask)
	if err != nil {
		return opts, nil, err
	}
	rec := obs.NewRecorder(*traceCap, mask)
	opts.Trace = rec
	return opts, func() error { stopProgress(); return dumpTrace(rec) }, nil
}

// dumpTrace writes the recorder's ring to -trace-out.
func dumpTrace(rec *obs.Recorder) error {
	f, err := os.Create(*traceOut)
	if err != nil {
		return err
	}
	err = rec.WriteJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if over := rec.Overwritten(); over > 0 {
		fmt.Fprintf(os.Stderr, "[obs] abcsim: trace ring wrapped; oldest %d of %d events lost (raise -trace-cap)\n", over, rec.Total())
	}
	fmt.Fprintf(os.Stderr, "[obs] abcsim: wrote %d trace events to %s\n", rec.Total()-rec.Overwritten(), *traceOut)
	return nil
}
