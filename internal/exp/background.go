// Fluid background wiring: Spec.Background attaches fluid.Coupler
// aggregates to named edges, turning "millions of users behind this
// bottleneck" into a constant-cost clause instead of millions of packet
// events. Foreground flows stay packet-level and see the residual
// service rate and the fluid-inflated queuing delay (abc.Router marks
// against the total load). See DESIGN.md "Hybrid fluid/packet".
package exp

import (
	"fmt"

	"abc/internal/fluid"
	"abc/internal/sim"
)

// BackgroundSpec attaches one fluid aggregate to one edge.
type BackgroundSpec struct {
	// Edge names the hosting edge: a mesh EdgeSpec.Name, or a chain
	// link "fwd<i>" / "rev<i>". Trace and rate links only — wires and
	// Wi-Fi links reject backgrounds at wiring time.
	Edge string `spec:"edge"`
	// Kind is the rate process: "const" or "onoff" (fluid package
	// aggregate kinds).
	Kind string `spec:"kind"`
	// Flows is N, the number of virtual background flows. It is
	// descriptive: echoed in BackgroundResult, never read by the rate
	// process.
	Flows int `spec:"flows"`
	// RateMbps is the aggregate offered rate.
	RateMbps float64 `spec:"rate_mbps"`
	// Ramp linearly scales the offered rate from zero over this window
	// after Start.
	Ramp sim.Time `spec:"ramp_s"`
	// On/Off define the "onoff" diurnal square schedule.
	On  sim.Time `spec:"on_s"`
	Off sim.Time `spec:"off_s"`
	// Start/Stop bound the aggregate's activity (Stop 0 = whole run).
	Start sim.Time `spec:"start_s"`
	Stop  sim.Time `spec:"stop_s"`
	// Step overrides the fixed coupling step (default 10 ms).
	Step sim.Time `spec:"step_ms"`
}

// config lowers the spec to the fluid package's configuration.
func (bs *BackgroundSpec) config() fluid.AggregateConfig {
	return fluid.AggregateConfig{
		Kind:    bs.Kind,
		Flows:   bs.Flows,
		RateBps: bs.RateMbps * 1e6,
		OnFor:   bs.On,
		OffFor:  bs.Off,
		Ramp:    bs.Ramp,
		Start:   bs.Start,
		Stop:    bs.Stop,
		Step:    bs.Step,
	}
}

// BackgroundResult reports one fluid aggregate's run.
type BackgroundResult struct {
	Edge  string
	Kind  string
	Flows int
	// OfferedMB / ServedMB / DroppedMB are megabytes offered by the
	// rate process, actually served by the link, and shed when the
	// fluid backlog overflowed its buffer cap.
	OfferedMB float64
	ServedMB  float64
	DroppedMB float64
	// MeanShare is the time-averaged fraction of link service the
	// aggregate consumed.
	MeanShare float64
	// FinalQueueBytes is the fluid backlog left when the run ended.
	FinalQueueBytes float64
}

// bgRunner pairs a spec entry with its running coupler.
type bgRunner struct {
	spec    *BackgroundSpec
	coupler *fluid.Coupler
}

// startBackgrounds validates Spec.Background against the compiled
// topology and arms one coupler per entry on its edge's home simulator.
// Every bad form is a loud error: unknown edge, duplicate edge, link
// models without background-aware service loops, and bad aggregate
// parameters (via fluid's validation).
func (c *compiled) startBackgrounds() error {
	g, spec, edgeID := c.g, c.spec, c.p.edgeID
	if len(spec.Background) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(spec.Background))
	for i := range spec.Background {
		bs := &spec.Background[i]
		if bs.Edge == "" {
			return fmt.Errorf("exp: background[%d]: missing edge name", i)
		}
		if seen[bs.Edge] {
			return fmt.Errorf("exp: background[%d]: edge %q already carries an aggregate", i, bs.Edge)
		}
		seen[bs.Edge] = true
		id, ok := edgeID[bs.Edge]
		if !ok {
			return fmt.Errorf("exp: background[%d]: unknown edge %q", i, bs.Edge)
		}
		e := g.Edge(id)
		// The coupler reads capacity from the live link, so mid-run
		// set_rate events stay visible to the fluid, and packet backlog
		// from the edge's discipline.
		host, ok := e.Link.(interface{ CapacityBps(now sim.Time) float64 })
		if !ok {
			return fmt.Errorf("exp: background[%d]: edge %q: link model %T cannot host a fluid background (trace and rate links only)", i, bs.Edge, e.Link)
		}
		cp, err := fluid.NewCoupler(bs.config(), host.CapacityBps, c.edgeQ[id].Bytes)
		if err != nil {
			return fmt.Errorf("exp: background[%d] (edge %q): %w", i, bs.Edge, err)
		}
		if err := e.SetBackground(cp); err != nil {
			return fmt.Errorf("exp: background[%d]: %w", i, err)
		}
		cp.Start(e.Home(), spec.Duration)
		c.bg = append(c.bg, &bgRunner{spec: bs, coupler: cp})
	}
	return nil
}

// collectBackgrounds fills Result.Backgrounds after the clock stops.
func (c *compiled) collectBackgrounds() {
	res := c.res
	for _, r := range c.bg {
		st := r.coupler.Stats()
		res.Backgrounds = append(res.Backgrounds, BackgroundResult{
			Edge:            r.spec.Edge,
			Kind:            r.spec.Kind,
			Flows:           r.spec.Flows,
			OfferedMB:       st.ArrivedBytes / 1e6,
			ServedMB:        st.ServedBytes / 1e6,
			DroppedMB:       st.DroppedBytes / 1e6,
			MeanShare:       st.MeanShare,
			FinalQueueBytes: st.FinalQueueBytes,
		})
	}
}
