package main

import (
	"fmt"
	"io"
	"math"
)

// compareReports prints one row per (workload, end-to-end metric) of two
// reports of the same benchmark: a is the parent, b the change. A row
// reads better or worse only when the medians differ by more than the
// metric's bound; where either side's own spread (the distance between
// the quartiles of its samples) is wider than the bound, it reads
// unresolved, not unchanged.
func compareReports(w io.Writer, pathA, pathB string) error {
	var a, b Report
	if err := readReport(pathA, &a); err != nil {
		return err
	}
	if err := readReport(pathB, &b); err != nil {
		return err
	}
	ma, mb := a.Manifest, b.Manifest
	if ma.NProc != mb.NProc || ma.GOMAXPROCS != mb.GOMAXPROCS || ma.Seed != mb.Seed ||
		ma.Degraded != mb.Degraded || ma.Smoke != mb.Smoke {
		return fmt.Errorf("reports are not comparable: cores %d/%d, GOMAXPROCS %d/%d, seed %d/%d, degraded %v/%v, smoke %v/%v",
			ma.NProc, mb.NProc, ma.GOMAXPROCS, mb.GOMAXPROCS, ma.Seed, mb.Seed, ma.Degraded, mb.Degraded, ma.Smoke, mb.Smoke)
	}
	byName := map[string]*WorkloadReport{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", pathA, pathB, "change", "bound", "verdict")
	worse := 0
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			return fmt.Errorf("workload %s is missing from %s", wa.Name, pathB)
		}
		if wa.SpecHash != wb.SpecHash {
			return fmt.Errorf("workload %s ran different inputs: spec hash %s vs %s", wa.Name, wa.SpecHash, wb.SpecHash)
		}
		if wa.Digest != wb.Digest {
			fmt.Fprintf(w, "%-15s result digest changed: %s -> %s (simulated behaviour differs)\n", wa.Name, wa.Digest, wb.Digest)
		}
		for _, d := range endToEnd {
			x, y := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if x.Value == 0 {
				return fmt.Errorf("%s %s: no value in %s", wa.Name, d.name, pathA)
			}
			// change > 0 means b is worse.
			change := (y.Value - x.Value) / x.Value
			if d.better == "higher" {
				change = -change
			}
			spread := math.Max((x.Q3-x.Q1)/x.Value, (y.Q3-y.Q1)/math.Max(y.Value, 1e-300))
			verdict := "within bound"
			switch {
			case spread > d.bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
			case change > d.bound:
				verdict = "WORSE"
				worse++
			case change < -d.bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				wa.Name, d.name, x.Value, y.Value, 100*change, 100*d.bound, verdict)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%-15s failed operations: %d/%d -> %d/%d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			if wb.Failed > wa.Failed {
				worse++
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse than their bound allows", worse)
	}
	return nil
}
