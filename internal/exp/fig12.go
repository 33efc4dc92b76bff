// Fig. 12: ABC's max-min weight policy versus RCP's Zombie-List policy
// when long-running ABC and Cubic flows share a 96 Mbit/s dual-queue
// bottleneck with Poisson arrivals of short (10 KB) Cubic flows at
// several offered loads. Each (load, run) cell is one Spec: the long
// flows are its Flows, the short flows one Workload.
package exp

import (
	"fmt"
	"io"
	"math"

	"abc/internal/app"
	"abc/internal/sim"
)

// Fig12Point is one (policy, load) cell.
type Fig12Point struct {
	Policy      string
	OfferedLoad float64 // fraction of link capacity offered as shorts
	// ABCMean/CubicMean are the mean long-flow throughputs (Mbit/s)
	// and the Stds their standard deviations across flows and runs.
	ABCMean, ABCStd     float64
	CubicMean, CubicStd float64
}

// Fig12Config sizes the experiment; the paper uses 10 runs of 40 s each,
// which the benchmarks scale down.
type Fig12Config struct {
	Runs     int
	Duration sim.Time
	Loads    []float64 // fractions of the 96 Mbit/s link
	Seed     int64
}

// defaultFig12Config mirrors the paper's setup.
func defaultFig12Config() Fig12Config {
	return Fig12Config{
		Runs:     10,
		Duration: 40 * sim.Second,
		Loads:    []float64{0.0625, 0.125, 0.25, 0.50},
		Seed:     1,
	}
}

// fig12WeightPolicy runs the experiment for one policy ("maxmin" or
// "zombie") and returns one point per offered load.
func fig12WeightPolicy(policy string, cfg Fig12Config) ([]Fig12Point, error) {
	def := defaultFig12Config()
	if cfg.Runs <= 0 {
		cfg.Runs = def.Runs
	}
	if cfg.Duration <= 0 {
		cfg.Duration = def.Duration
	}
	if len(cfg.Loads) == 0 {
		cfg.Loads = def.Loads
	}
	// Every (load, run) cell is an independent simulation; fan them all
	// out and aggregate per load afterwards, preserving run order so the
	// concatenated rate vectors match a sequential sweep byte for byte.
	type cellOut struct{ abc, cubic []float64 }
	cells := make([]cellOut, len(cfg.Loads)*cfg.Runs)
	err := forEachCell(len(cells), func(i int) string {
		li, run := i/cfg.Runs, i%cfg.Runs
		return fmt.Sprintf("fig12 policy=%s load=%g run=%d seed=%d", policy, cfg.Loads[li], run, cfg.Seed+int64(run)*97)
	}, func(i int) error {
		li, run := i/cfg.Runs, i%cfg.Runs
		a, c, err := fig12Run(policy, cfg.Loads[li], cfg.Duration, cfg.Seed+int64(run)*97)
		cells[i] = cellOut{abc: a, cubic: c}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig12Point, 0, len(cfg.Loads))
	for li, load := range cfg.Loads {
		var abcRates, cubicRates []float64
		for run := 0; run < cfg.Runs; run++ {
			cell := cells[li*cfg.Runs+run]
			abcRates = append(abcRates, cell.abc...)
			cubicRates = append(cubicRates, cell.cubic...)
		}
		pt := Fig12Point{Policy: policy, OfferedLoad: load}
		pt.ABCMean, pt.ABCStd = meanStd(abcRates)
		pt.CubicMean, pt.CubicStd = meanStd(cubicRates)
		out = append(out, pt)
	}
	return out, nil
}

// fig12Both runs the experiment under max-min, then under zombie-list.
func fig12Both(p Params) ([]Fig12Point, error) {
	cfg := defaultFig12Config()
	cfg.Runs, cfg.Duration, cfg.Seed = p.Runs, p.Dur, p.Seed
	var out []Fig12Point
	for _, pol := range []string{"maxmin", "zombie"} {
		pts, err := fig12WeightPolicy(pol, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

func printFig12(w io.Writer, pts []Fig12Point) {
	for i, p := range pts {
		if i == 0 || p.Policy != pts[i-1].Policy {
			fmt.Fprintf(w, "## %s\n", p.Policy)
		}
		fmt.Fprintf(w, "load=%5.1f%%  ABC %5.2f±%.2f Mbps   Cubic %5.2f±%.2f Mbps\n",
			p.OfferedLoad*100, p.ABCMean, p.ABCStd, p.CubicMean, p.CubicStd)
	}
}

func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(v / float64(len(xs)))
}

// fig12Spec is one cell: a 96 Mbit/s dual-queue link shared by 3 ABC +
// 3 Cubic long flows and Poisson arrivals of 10 KB Cubic flows offering
// the given fraction of the link (no arrival process at load 0).
func fig12Spec(policy string, load float64, dur sim.Time, seed int64) Spec {
	const linkBps = 96e6
	const shortBytes = 10 * 1024
	spec := Spec{
		Seed:     seed,
		Duration: dur,
		Warmup:   4 * sim.Second,
		RTT:      100 * sim.Millisecond,
		Links:    []LinkSpec{{Rate: linkBps, Qdisc: QdiscSpec{Kind: "dual-" + policy}}},
		Flows: []FlowSpec{
			{Scheme: "ABC"}, {Scheme: "ABC"}, {Scheme: "ABC"},
			{Scheme: "Cubic"}, {Scheme: "Cubic"}, {Scheme: "Cubic"},
		},
	}
	if load > 0 {
		spec.Workloads = []WorkloadSpec{{
			Scheme:  "Cubic",
			Arrival: app.Poisson{PerSec: load * linkBps / (shortBytes * 8)},
			Sizes:   app.FixedSize{Bytes: shortBytes},
		}}
	}
	return spec
}

// fig12Run executes one cell and returns the long flows' throughputs in
// Mbit/s (zero for a run no longer than the warm-up).
func fig12Run(policy string, load float64, dur sim.Time, seed int64) (abcT, cubicT []float64, err error) {
	res, _, err := Run(fig12Spec(policy, load, dur, seed))
	if err != nil {
		return nil, nil, err
	}
	// A short flow refused by the MaxActive cap would lower the offered
	// load silently.
	for i := range res.Workloads {
		if n := res.Workloads[i].Rejected; n > 0 {
			return nil, nil, fmt.Errorf("exp: fig12: %d short flows rejected; offered load not delivered", n)
		}
	}
	for i := range res.Flows {
		if fr := &res.Flows[i]; fr.Scheme == "ABC" {
			abcT = append(abcT, fr.TputMbps)
		} else {
			cubicT = append(cubicT, fr.TputMbps)
		}
	}
	return abcT, cubicT, nil
}
