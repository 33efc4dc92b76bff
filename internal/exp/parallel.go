// Bounded worker pool for the multi-run figure drivers. Every (trace,
// scheme, seed) cell of a figure owns its own sim.Simulator, RNG and
// metric recorders, and reads only immutable shared state (parsed
// traces) and its RunOptions, so independent cells run on separate cores
// with results byte-identical to a sequential sweep. The pool is
// runtime.GOMAXPROCS(0) wide; run with GOMAXPROCS=1 to bisect or profile
// one cell at a time.
package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"abc/internal/obs"
)

// Parallelism is read by nothing: the cell pool is always
// runtime.GOMAXPROCS(0) wide. Kept for bench/; deleted when bench passes
// RunOptions (ROADMAP 2(g)).
var Parallelism int

// forEachCell runs fn(i) for every i in [0, n) across a pool of
// min(n, GOMAXPROCS) workers and returns the lowest-index error, so error
// reporting is deterministic too. fn must write its result into a
// caller-provided slot indexed by i and must not touch other slots.
// Determinism contract: each cell is a pure function of its spec — the
// pool only changes *when* cells run, never what they compute — so for a
// fixed seed the output is byte-identical at any GOMAXPROCS.
//
// label(i), when not nil, renders cell i's sweep coordinates
// ("trace=Verizon scheme=abc seed=42") into every error and panic report,
// so a failure inside a 300-cell fan-out is attributable without
// re-running the sweep. A panicking cell does not kill the process: the
// panic is converted into that cell's error (with its stack) and the
// remaining cells complete. When o.Metrics is set, the obs cell counters
// (obs.MetricCellsTotal/Done/Failed) track sweep progress for the
// /metrics endpoint and the progress line.
func forEachCell(o RunOptions, n int, label func(i int) string, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	reg := o.Metrics
	if reg != nil {
		reg.Counter(obs.MetricCellsTotal).Add(int64(n))
	}
	run := func(i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("cell panicked: %v\n%s", p, debug.Stack())
			}
			if err != nil && label != nil {
				err = fmt.Errorf("cell %s: %w", label(i), err)
			}
			if reg != nil {
				reg.Counter(obs.MetricCellsDone).Inc()
				if err != nil {
					reg.Counter(obs.MetricCellsFailed).Inc()
				}
			}
		}()
		return fn(i)
	}
	w := min(n, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep is the per-scheme sweep every comparison driver shares: it
// resolves the scheme set (p.Schemes, else def), runs cell once per
// scheme across the worker pool — each cell labelled "<label> scheme=…
// seed=…" with p.Seed for error reports — and returns the rows in
// scheme order.
func sweep[R any](label string, p Params, def []string, cell func(scheme string) (R, error)) ([]R, error) {
	schemes := p.Schemes
	if len(schemes) == 0 {
		schemes = def
	}
	rows := make([]R, len(schemes))
	err := forEachCell(p.RunOptions, len(schemes), func(i int) string {
		return fmt.Sprintf("%s scheme=%s seed=%d", label, schemes[i], p.Seed)
	}, func(i int) (err error) {
		rows[i], err = cell(schemes[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// sweepMap is sweep with the rows keyed by scheme name.
func sweepMap[R any](label string, p Params, def []string, cell func(scheme string) (R, error)) (map[string]R, error) {
	if len(p.Schemes) == 0 {
		p.Schemes = def
	}
	rows, err := sweep(label, p, nil, cell)
	if err != nil {
		return nil, err
	}
	out := make(map[string]R, len(p.Schemes))
	for i, sch := range p.Schemes {
		out[sch] = rows[i]
	}
	return out, nil
}
