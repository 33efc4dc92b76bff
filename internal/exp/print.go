// Print helpers shared by the driver table's Print functions and the
// scenario-file report. Everything here emits in a fixed order — slices
// as given, maps by sorted key — so output is byte-identical run to run
// at a fixed seed.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"abc/internal/app"
	"abc/internal/metrics"
	"abc/internal/packet"
)

// sortedKeys returns a scheme-keyed result's names in sorted order: the
// one iteration order every map-valued driver prints in.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// printSummaries emits one paper-summary row per scheme, in run order.
func printSummaries(w io.Writer, sums []metrics.Summary) {
	for _, s := range sums {
		fmt.Fprintln(w, s)
	}
}

func printEvents(w io.Writer, events []EventResult) {
	for _, ev := range events {
		fmt.Fprintf(w, "event @%7.0f ms  %-10s %s\n", ev.AtMs, ev.Kind, ev.Target)
	}
}

func printRouteChanges(w io.Writer, changes []RouteChangeResult) {
	for _, rc := range changes {
		dir := "data"
		if rc.Ack {
			dir = "ack"
		}
		fmt.Fprintf(w, "route @%7.0f ms  flow %d %-4s -> %s\n",
			rc.AtMs, rc.Flow, dir, strings.Join(rc.Path, ">"))
	}
}

// PrintResult renders one scenario run — the report `abcsim -scenario`
// prints: a row per flow, application and workload summaries, fluid
// backgrounds, the executed timeline and every drop counter that fired.
func PrintResult(w io.Writer, res *Result, pooled *metrics.DelayRecorder) {
	spec := &res.Spec
	fmt.Fprintf(w, "%-4s %-14s %-12s %10s %12s %12s %8s\n",
		"Flow", "Scheme", "Route", "Tput Mbps", "delay p95", "queue p95", "lost")
	for i := range res.Flows {
		f := &res.Flows[i]
		route := "forward"
		if spec.Flows[i].Dir == Reverse {
			route = "reverse"
		}
		if len(spec.Flows[i].Path) > 0 {
			route = strings.Join(spec.Flows[i].Path, ">")
		}
		fmt.Fprintf(w, "%-4d %-14s %-12s %10.2f %9.0f ms %9.0f ms %8d\n",
			i, f.Scheme, route, f.TputMbps, f.Delay.P95(), f.QDelay.P95(), f.Lost)
	}
	for i := range res.Flows {
		switch a := res.Flows[i].App.(type) {
		case *app.ABR:
			fmt.Fprintf(w, "flow %d video QoE: %v\n", i, a.QoE())
		case *app.RPC:
			fmt.Fprintf(w, "flow %d rpc: calls=%d  FCT mean %.0f ms, p95 %.0f ms\n",
				i, a.Calls, a.FCT().Mean(), a.FCT().P95())
		}
	}
	for i := range res.Workloads {
		wl := &res.Workloads[i]
		fmt.Fprintf(w, "workload %d: %v  (spawned=%d completed=%d active=%d rejected=%d)\n",
			i, wl.Stats(), wl.Spawned, wl.Completed, wl.Active, wl.Rejected)
	}
	for _, bg := range res.Backgrounds {
		fmt.Fprintf(w, "background %s (%s, %d flows): offered %.1f MB, served %.1f MB, dropped %.1f MB, mean share %.1f%%\n",
			bg.Edge, bg.Kind, bg.Flows, bg.OfferedMB, bg.ServedMB, bg.DroppedMB, bg.MeanShare*100)
	}
	if res.Utilization > 0 {
		fmt.Fprintf(w, "utilization: %.1f%%\n", res.Utilization*100)
	}
	fmt.Fprintf(w, "pooled delay: mean %.0f ms, p95 %.0f ms\n", pooled.Mean(), pooled.P95())
	if n := res.Ledger.Released[packet.Impair]; n > 0 {
		fmt.Fprintf(w, "impairment drops: %d\n", n)
	}
	printEvents(w, res.Events)
	printRouteChanges(w, res.RouteChanges)
	if n := res.Ledger.Released[packet.LinkDown]; n > 0 {
		fmt.Fprintf(w, "link-down drops: %d\n", n)
	}
	if res.Drops > 0 {
		if len(spec.Events) > 0 {
			fmt.Fprintf(w, "unrouted drops: %d (includes packets in flight across reroutes)\n", res.Drops)
		} else {
			fmt.Fprintf(w, "UNROUTED DROPS: %d (wiring bug in the scenario)\n", res.Drops)
		}
	}
}
