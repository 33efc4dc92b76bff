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
func setupObs(prog string) (opts exp.RunOptions, teardown func() error, err error) {
	teardown = func() error { return nil }
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		addr, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return opts, nil, err
		}
		fmt.Fprintf(os.Stderr, "[obs] %s: serving metrics on http://%s/metrics\n", prog, addr)
		opts.Metrics = reg
		stop := obs.StartProgress(os.Stderr, reg, 2*time.Second)
		teardown = func() error { stop(); return nil }
	}
	if *traceOut != "" {
		mask, err := obs.ParseMask(*traceMask)
		if err != nil {
			return opts, nil, err
		}
		rec := obs.NewRecorder(*traceCap, mask)
		opts.Trace = rec
		prev := teardown
		teardown = func() error {
			perr := prev()
			f, err := os.Create(*traceOut)
			if err == nil {
				err = rec.WriteJSONL(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err == nil {
				if over := rec.Overwritten(); over > 0 {
					fmt.Fprintf(os.Stderr, "[obs] %s: trace ring wrapped; oldest %d of %d events lost (raise -trace-cap)\n", prog, over, rec.Total())
				}
				fmt.Fprintf(os.Stderr, "[obs] %s: wrote %d trace events to %s\n", prog, rec.Total()-rec.Overwritten(), *traceOut)
			}
			if perr == nil {
				perr = err
			}
			return perr
		}
	}
	return opts, teardown, nil
}
