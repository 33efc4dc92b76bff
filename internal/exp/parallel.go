// Bounded worker pool for the multi-run figure drivers. Every (trace,
// scheme, seed) cell of a figure owns its own sim.Simulator, RNG and
// metric recorders, and reads only immutable shared state (parsed
// traces), so independent cells can run on separate cores with results
// byte-identical to a sequential sweep.
package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"abc/internal/obs"
)

// Parallelism bounds the number of experiment cells running concurrently
// in the multi-run figure drivers (Fig. 1/8/9/10/12/17/18, Table 1).
// Zero, the default, means one worker per available CPU. Set to 1 to
// force sequential execution (useful when bisecting or profiling a
// single cell).
//
// Determinism contract: each cell is a pure function of its spec — the
// pool only changes *when* cells run, never what they compute — so for a
// fixed seed the driver output is byte-identical at any parallelism
// level. A regression test asserts this.
var Parallelism int

// workers resolves the worker count for n independent cells.
func workers(n int) int {
	w := Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachCell runs fn(i) for every i in [0, n) across the worker pool
// and returns the lowest-index error (so error reporting is
// deterministic too). fn must write its result into a caller-provided
// slot indexed by i and must not touch other slots. label(i), when not
// nil, renders cell i's sweep coordinates ("trace=Verizon scheme=abc
// seed=42") into every error and panic report, so a failure inside a
// 300-cell fan-out is attributable without re-running the sweep
// sequentially. A panicking cell does not kill the process: the panic
// is converted into that cell's error (with its stack) and the
// remaining cells complete. When live metrics are enabled, the obs cell
// counters (obs.MetricCellsTotal/Done/Failed) track sweep progress for
// the /metrics endpoint and the progress line.
func forEachCell(n int, label func(i int) string, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	reg := metReg.Load()
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
	if w := workers(n); w > 1 {
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
	for i := 0; i < n; i++ {
		if err := run(i); err != nil {
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
	err := forEachCell(len(schemes), func(i int) string {
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
