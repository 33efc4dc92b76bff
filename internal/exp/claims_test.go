package exp

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"abc/internal/metrics"
	"abc/internal/sim"
)

// headlineClaims are the driver table's claims, in table order: adding
// or dropping one is a deliberate edit of this list.
var headlineClaims = []string{
	"fig3/ai-fairness", "fig4/tia-slope", "fig5/backlogged-prediction", "fig7/dual-queue-share",
	"fig8/min-of-marks", "fig9/util-delay", "fig12/weight-policy", "fig13/app-limited", "fig18/rtt",
	"fig18/util", "jain/min-index", "ablations/tradeoffs", "proxied/equivalent",
	"pkabc/future-knowledge", "stability/eq13-fixed-point", "markeduplink/reverse-min-of-marks",
}

// claimed is one placement of the table that carries claims, with its
// row.
type claimed struct {
	d  Driver
	pl Placement
}

// claimedPlacements lists the table's placements with claims, in table
// order.
func claimedPlacements() []claimed {
	var out []claimed
	for _, d := range Drivers {
		for _, pl := range d.Report {
			if len(pl.Claims) > 0 {
				out = append(out, claimed{d, pl})
			}
		}
	}
	return out
}

// seedRuns returns the placement's results at its -fast parameters on
// seeds 1 to 3, run in the tie order then in force the first time one of
// its claims asks, and the same results to each claim after.
func (cp claimed) seedRuns() func() ([]any, error) {
	return sync.OnceValues(func() ([]any, error) {
		var rs []any
		for seed := int64(1); seed <= 3; seed++ {
			p := cp.pl.Fast
			p.Seed = seed
			r, err := cp.d.Run(p)
			if err != nil {
				return nil, err
			}
			rs = append(rs, r)
		}
		return rs, nil
	})
}

// TestPaperClaims checks every claim of the driver table on seeds 1 to
// 3 in the scheduling order of same-instant events. Each placement with
// claims runs once per seed, and every claim it carries reads those
// results. The claims run in parallel; each logs its reading's margin to
// its band's nearer edge and hands its readings to TestTieOrderRelation,
// which so runs no placement in this order a second time.
func TestPaperClaims(t *testing.T) {
	var names []string
	for _, cp := range claimedPlacements() {
		for _, c := range cp.pl.Claims {
			names = append(names, cp.d.Name+"/"+c.Name)
			if c.Paper == "" || c.Read == nil || !(c.Lo <= c.Hi) {
				t.Errorf("claim %s/%s incomplete: paper=%q band=%s", cp.d.Name, c.Name, c.Paper, c.Band())
			}
		}
	}
	if !slices.Equal(names, headlineClaims) {
		t.Errorf("the driver table's claims are\n%q\nwant headlineClaims\n%q", names, headlineClaims)
	}
	handed := map[string][]float64{}
	var mu sync.Mutex
	prev := sim.ReverseTies(false)
	t.Cleanup(func() {
		sim.ReverseTies(prev)
		schedulingReadings.Store(&handed)
	})
	for _, cp := range claimedPlacements() {
		runs := cp.seedRuns()
		for _, c := range cp.pl.Claims {
			c, name := c, cp.d.Name+"/"+c.Name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				vs := checkClaim(t, c, "scheduling order", nil, runs)
				mu.Lock()
				handed[name] = vs
				mu.Unlock()
			})
		}
	}
}

// schedulingReadings holds the readings of TestPaperClaims' last run
// until TestTieOrderRelation takes them.
var schedulingReadings atomic.Pointer[map[string][]float64]

// TestTieOrderRelation checks every claim of the driver table on seeds
// 1 to 3 under both orders of the events due at one instant: the order
// they were scheduled in, and its reverse (sim.ReverseTies). Two flows'
// packets reaching one queue in one nanosecond have no order in the
// paper's model, so a claim that holds under only one of them rests on a
// convention of the simulator. In the scheduling order it checks the
// readings TestPaperClaims handed over, and runs only the placements
// whose claims it did not. The order is process-wide, so each order is
// one pass; a pass runs each placement once per seed, checks its claims
// in parallel and logs each reading's margin.
func TestTieOrderRelation(t *testing.T) {
	handed := map[string][]float64{}
	if p := schedulingReadings.Swap(nil); p != nil {
		handed = *p
	}
	defer sim.ReverseTies(sim.ReverseTies(false))
	for _, order := range []string{"scheduling order", "reversed ties"} {
		sim.ReverseTies(order == "reversed ties")
		t.Run(order, func(t *testing.T) {
			for _, cp := range claimedPlacements() {
				runs := cp.seedRuns()
				for _, c := range cp.pl.Claims {
					c, name := c, cp.d.Name+"/"+c.Name
					var vs []float64
					if order == "scheduling order" {
						vs = handed[name]
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						checkClaim(t, c, order, vs, runs)
					})
				}
			}
		})
	}
}

// checkClaim checks c's readings on seeds 1 to 3 under order, the one
// in force: vs when it holds all three, else c read off runs' results.
// It logs each reading's margin and returns the readings, nil if a run
// failed.
func checkClaim(t *testing.T, c Claim, order string, vs []float64, runs func() ([]any, error)) []float64 {
	t.Helper()
	if len(vs) != 3 {
		rs, err := runs()
		if err != nil {
			t.Fatal(err)
		}
		vs = nil
		for _, r := range rs {
			vs = append(vs, c.Read(r))
		}
	}
	for i, v := range vs {
		seed := i + 1
		t.Logf("seed %d, %s: measured %.4f against %s (margin %+.4f)", seed, order, v, c.Band(), min(v-c.Lo, c.Hi-v))
		if !c.Holds(v) {
			t.Errorf("seed %d, %s: %s: measured %.4f outside %s", seed, order, c.Paper, v, c.Band())
		}
	}
	return vs
}

// TestClaimNeedsDelivery: a run that delivered nothing confirms no
// claim. Holds rejects NaN and ±Inf, even against an infinite bound, and
// every reading that compares runs is NaN when a side it compares
// delivered no bytes; the others read a value outside their band.
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
	sweep := map[int]map[string]metrics.Summary{
		20:  {"ABC": abc, "Cubic": cubic},
		200: {"ABC": abc, "Cubic": cubic},
	}
	if v := fig18WorstRatio(sweep); v != 0.2 {
		t.Errorf("fig18 reading = %v, want ABC's p95 over Cubic's, 0.2", v)
	}
	sweep[200] = map[string]metrics.Summary{"ABC": silent, "Cubic": cubic}
	nothing := metrics.JainIndex([]float64{0, 0})
	silentFig3 := &Fig3Result{JainAllActive: nothing}
	silentSweeps := []AblationSweep{{Points: []AblationPoint{{}}}, {}, {Points: []AblationPoint{{}}}}
	for _, r := range []struct {
		claim string
		c     Claim
		v     float64
	}{
		{"fig8 with a silent ABC", fig8Claim, fig8MinOfMarks([]metrics.Summary{silent, cubic})},
		{"fig18 with a silent ABC at one RTT", fig18Claim, fig18WorstRatio(sweep)},
		{"fig3 with silent flows", fig3Claim, fig3Claim.Read([]*Fig3Result{silentFig3, silentFig3})},
		{"fig5 with no prediction", fig5Claim, fig5MaxErrorBacklogged([]Fig5Point{{OfferedMbps: 40, TrueMbps: 30}})},
		{"fig7 with silent ABC flows", fig7Claim, fig7Margin(&Fig7Result{SteadyTput: []float64{0, 0, 9, 9}, Jain: 1, CubicQDelayP95: 300})},
		{"jain with silent flows", jainClaim, jainLowest([]JainPoint{{Flows: 2, Jain: nothing}})},
		{"ablations with silent runs", ablationClaim, ablationMargin(silentSweeps)},
		{"proxied with silent runs", proxiedClaim, proxiedDeviation([]metrics.Summary{silent, silent})},
		{"pkabc with silent runs", pkabcClaim, pkabcExcess(&PKABCResult{})},
	} {
		if r.c.Holds(r.v) {
			t.Errorf("%s: reading %v holds %s", r.claim, r.v, r.c.Band())
		}
	}
}
