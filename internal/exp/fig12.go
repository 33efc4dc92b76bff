// Fig. 12: ABC's max-min weight policy versus RCP's Zombie-List policy
// when long-running ABC and Cubic flows share a 96 Mbit/s dual-queue
// bottleneck with Poisson arrivals of short (10 KB) Cubic flows at
// several offered loads. It builds its topo.Graph by hand rather than
// through Spec.Workloads only to keep its golden digests: the Spec
// harness draws from the RNG and numbers flows in a different order.
package exp

import (
	"fmt"
	"io"
	"math"

	"abc/internal/cc"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/topo"
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

// DefaultFig12Config mirrors the paper's setup.
func DefaultFig12Config() Fig12Config {
	return Fig12Config{
		Runs:     10,
		Duration: 40 * sim.Second,
		Loads:    []float64{0.0625, 0.125, 0.25, 0.50},
		Seed:     1,
	}
}

// Fig12WeightPolicy runs the experiment for one policy ("maxmin" or
// "zombie") and returns one point per offered load.
func Fig12WeightPolicy(policy string, cfg Fig12Config) ([]Fig12Point, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 10
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 40 * sim.Second
	}
	if len(cfg.Loads) == 0 {
		cfg.Loads = []float64{0.0625, 0.125, 0.25, 0.50}
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
	cfg := DefaultFig12Config()
	cfg.Runs, cfg.Duration, cfg.Seed = p.Runs, p.Dur, p.Seed
	var out []Fig12Point
	for _, pol := range []string{"maxmin", "zombie"} {
		pts, err := Fig12WeightPolicy(pol, cfg)
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

// fig12Run executes one 96 Mbit/s dual-queue run with 3 ABC + 3 Cubic
// long flows and Poisson short Cubic flows at the offered load, returning
// the long flows' throughputs in Mbit/s. Routes for the short flows are
// installed on the hand-built graph as they arrive (see the file comment
// for why this is not a Spec).
func fig12Run(policy string, load float64, dur sim.Time, seed int64) (abcT, cubicT []float64, err error) {
	const linkBps = 96e6
	const shortBytes = 10 * 1024
	const warmup = 4 * sim.Second

	s := sim.New(seed)
	qd, err := qdisc.Build(qdisc.BuildSpec{Kind: "dual-" + policy})
	if err != nil {
		return nil, nil, err
	}

	// Two-node graph: the bottleneck edge carries data left to right, a
	// pure-delay edge carries ACKs back.
	g := topo.New(s)
	attachObs(g)
	lhs, rhs := g.AddNode("lhs"), g.AddNode("rhs")
	dataEdge, err := g.AddEdge("data", lhs, rhs, 50*sim.Millisecond, topo.Impairments{},
		func(dst packet.Node) (topo.Link, error) {
			return netem.NewRateLink(s, netem.ConstRate(linkBps), qd, dst), nil
		})
	if err != nil {
		return nil, nil, err
	}
	ackEdge, err := g.AddEdge("ack", rhs, lhs, 50*sim.Millisecond, topo.Impairments{}, nil)
	if err != nil {
		return nil, nil, err
	}

	// attach wires one flow onto the graph: data over the bottleneck
	// edge, ACKs over the return edge.
	attach := func(id int, scheme string) (*cc.Endpoint, *netem.Receiver, error) {
		alg, aerr := cc.New(scheme)
		if aerr != nil {
			return nil, nil, aerr
		}
		ep := cc.NewEndpoint(s, id, nil, alg)
		if rec := g.Recorder(); rec != nil {
			ep.SetObs(rec, int32(id))
		}
		ackEntry, aerr := g.RouteFlow(id, true, []int{ackEdge}, 0, ep)
		if aerr != nil {
			return nil, nil, aerr
		}
		recv := netem.NewReceiver(s, id, ackEntry)
		dataEntry, aerr := g.RouteFlow(id, false, []int{dataEdge}, 0, recv)
		if aerr != nil {
			return nil, nil, aerr
		}
		ep.Out = dataEntry
		return ep, recv, nil
	}

	// Long flows: ids 0..5 (0-2 ABC, 3-5 Cubic).
	longBytes := make([]int64, 6)
	for i := 0; i < 6; i++ {
		scheme := "ABC"
		if i >= 3 {
			scheme = "Cubic"
		}
		ep, recv, aerr := attach(i, scheme)
		if aerr != nil {
			return nil, nil, aerr
		}
		idx := i
		recv.OnData = func(now sim.Time, p *packet.Packet) {
			if now >= warmup {
				longBytes[idx] += int64(p.Size)
			}
		}
		ep.Start()
	}

	// Poisson short Cubic flows.
	arrivalRate := load * linkBps / (shortBytes * 8) // flows/sec
	nextID := 100
	var schedErr error
	var schedule func()
	schedule = func() {
		gap := sim.FromSeconds(expRand(s, arrivalRate))
		s.After(gap, func() {
			if s.Now() >= dur {
				return
			}
			id := nextID
			nextID++
			ep, _, aerr := attach(id, "Cubic")
			if aerr != nil {
				// Surface after the run: dropping the offered load on
				// the floor would corrupt the experiment silently.
				if schedErr == nil {
					schedErr = aerr
				}
				return
			}
			ep.Src = cc.NewFixed(shortBytes)
			ep.OnComplete = func(now sim.Time) { ep.Stop() }
			ep.Start()
			schedule()
		})
	}
	if arrivalRate > 0 {
		schedule()
	}

	s.RunUntil(dur)
	if schedErr != nil {
		return nil, nil, schedErr
	}

	// A run no longer than the warmup measures nothing: report zero
	// rather than 0/0.
	span := (dur - warmup).Seconds()
	for i := 0; i < 6; i++ {
		var mbps float64
		if span > 0 {
			mbps = float64(longBytes[i]) * 8 / span / 1e6
		}
		if i < 3 {
			abcT = append(abcT, mbps)
		} else {
			cubicT = append(cubicT, mbps)
		}
	}
	return abcT, cubicT, nil
}

// expRand draws an exponential inter-arrival time with the given rate.
func expRand(s *sim.Simulator, rate float64) float64 {
	if rate <= 0 {
		return math.MaxFloat64
	}
	return s.Rand().ExpFloat64() / rate
}
