package exp

import "testing"

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
