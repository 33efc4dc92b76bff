// Package prof bundles the runtime's profiling and tracing facilities
// into one start/stop pair for the command-line binaries: a CPU profile
// with an exit-time heap snapshot, and a runtime execution trace —
// `go tool trace` on a capture shows the worker pool's parallel cells
// and where each one waited. The hooks profile any abcsim invocation,
// the -report sweep included.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Config names the captures to run. Empty fields disable the capture.
type Config struct {
	// Pprof is a path prefix: the CPU profile goes to <Pprof>.cpu.pprof
	// and a heap snapshot (taken at stop time, after a GC) to
	// <Pprof>.heap.pprof.
	Pprof string
	// Trace is the runtime execution trace output file, viewable with
	// `go tool trace`.
	Trace string
}

// Start begins the configured captures and returns the function that
// finishes them: it stops the CPU profile, writes the heap snapshot and
// flushes the trace. Call it exactly once, after the workload ran. On a
// Start error nothing is left running and no stop call is needed.
func Start(cfg Config) (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	abort := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
	}
	if cfg.Pprof != "" {
		cpuFile, err = os.Create(cfg.Pprof + ".cpu.pprof")
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if cfg.Trace != "" {
		traceFile, err = os.Create(cfg.Trace)
		if err != nil {
			abort()
			return nil, err
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			abort()
			return nil, fmt.Errorf("runtime trace: %w", err)
		}
	}
	return func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				firstErr = err
			}
			// Heap snapshot after a GC so the profile shows live memory,
			// not garbage awaiting collection.
			runtime.GC()
			hf, err := os.Create(cfg.Pprof + ".heap.pprof")
			if err == nil {
				err = pprof.WriteHeapProfile(hf)
				if cerr := hf.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("heap profile: %w", err)
			}
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}
