package exp

import (
	"math"
	"testing"

	"abc/internal/metrics"
	"abc/internal/sim"
)

// headlineClaims are the claims that must stay in the table: the
// utilisation–delay ordering on the cellular corpus, the minimum of
// marks on the forward and the return path, Eq. 13's fixed point, the
// RTT sweep, Fig. 12's weight policies and Fig. 4's slope. Dropping one
// is a deliberate edit of this list.
var headlineClaims = []string{
	"fig9/util-delay",
	"fig8/min-of-marks",
	"markeduplink/reverse-min-of-marks",
	"stability/eq13-fixed-point",
	"fig18/rtt",
	"fig12/weight-policy",
	"fig4/tia-slope",
}

// TestPaperClaims checks every claim of the driver table on seeds 1 to
// 3: the measured value must lie in the claim's band on each. For a
// driver whose output does not move with the seed the three runs are
// one sample, and the band's margin is what the claim's comment
// derives it from.
func TestPaperClaims(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Drivers {
		for _, c := range d.Claims {
			c, name := c, d.Name+"/"+c.Name
			if seen[name] {
				t.Errorf("claim %s is in the table twice", name)
			}
			seen[name] = true
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				if c.Paper == "" || c.Measure == nil || !(c.Lo <= c.Hi) {
					t.Fatalf("claim incomplete: paper=%q band=%s", c.Paper, c.Band())
				}
				for seed := int64(1); seed <= 3; seed++ {
					v, err := c.Check(seed, RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("seed %d: measured %.4f, band %s", seed, v, c.Band())
					if !c.Holds(v) {
						t.Errorf("seed %d: %s: measured %.4f outside %s", seed, c.Paper, v, c.Band())
					}
				}
			})
		}
	}
	for _, h := range headlineClaims {
		if !seen[h] {
			t.Errorf("headline claim %s is not in the driver table", h)
		}
	}
}

// TestClaimNeedsDelivery: a run that delivered nothing confirms no
// claim. Its p95 delay reads 0, so a delay ratio over it is 0 or +Inf:
// Holds rejects ±Inf as it rejects NaN, even against an infinite bound,
// and the fig8 and fig18 readings are NaN when ABC or Cubic delivered
// no bytes.
func TestClaimNeedsDelivery(t *testing.T) {
	for _, c := range []Claim{fig8Claim, fig18Claim, {Lo: -inf, Hi: inf}} {
		for _, v := range []float64{inf, -inf, math.NaN()} {
			if c.Holds(v) {
				t.Errorf("band %s holds %v", c.Band(), v)
			}
		}
	}
	silent := metrics.Summary{Scheme: "ABC"}
	abc := metrics.Summary{Scheme: "ABC", TputMbps: 4, P95Ms: 60}
	cubic := metrics.Summary{Scheme: "Cubic", TputMbps: 5, P95Ms: 300}
	if v := fig8MinOfMarks([]metrics.Summary{abc, cubic}); v != 5 {
		t.Errorf("fig8 reading = %v, want Cubic's p95 over ABC's, 5", v)
	}
	if v := fig8MinOfMarks([]metrics.Summary{silent, cubic}); !math.IsNaN(v) {
		t.Errorf("fig8 reading with a silent ABC = %v, want NaN", v)
	}
	sweep := map[int]map[string]metrics.Summary{
		20:  {"ABC": abc, "Cubic": cubic},
		200: {"ABC": abc, "Cubic": cubic},
	}
	if v := fig18WorstRatio(sweep); v != 0.2 {
		t.Errorf("fig18 reading = %v, want ABC's p95 over Cubic's, 0.2", v)
	}
	sweep[200] = map[string]metrics.Summary{"ABC": silent, "Cubic": cubic}
	if v := fig18WorstRatio(sweep); !math.IsNaN(v) {
		t.Errorf("fig18 reading with a silent ABC at one RTT = %v, want NaN", v)
	}
}

// TestTieOrderRelation checks every claim of the driver table on seeds
// 1 to 3 under both orders of the events due at one instant: the order
// they were scheduled in, and its reverse (sim.ReverseTies). Two flows'
// packets reaching one queue in one nanosecond have no order in the
// paper's model, so a claim that holds under only one of them rests on a
// convention of the simulator. It logs fig9's margin over its band
// under each order. The order is process-wide, so the test runs alone;
// its claims run in parallel with one another.
func TestTieOrderRelation(t *testing.T) {
	defer sim.ReverseTies(sim.ReverseTies(false))
	for _, reversed := range []bool{false, true} {
		order := "scheduling order"
		if reversed {
			order = "reversed ties"
		}
		sim.ReverseTies(reversed)
		t.Run(order, func(t *testing.T) {
			for _, d := range Drivers {
				for _, c := range d.Claims {
					c, name := c, d.Name+"/"+c.Name
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						for seed := int64(1); seed <= 3; seed++ {
							v, err := c.Check(seed, RunOptions{})
							if err != nil {
								t.Fatal(err)
							}
							if !c.Holds(v) {
								t.Errorf("seed %d, %s: measured %.4f outside %s", seed, order, v, c.Band())
							}
							if name == "fig9/util-delay" {
								t.Logf("fig9 margin, seed %d, %s: %.4f against %s (%+.1f %%)", seed, order, v, c.Band(), 100*(v/c.Lo-1))
							}
						}
					})
				}
			}
		})
	}
}
