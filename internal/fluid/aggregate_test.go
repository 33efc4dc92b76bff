package fluid

import (
	"math"
	"strings"
	"testing"

	"abc/internal/sim"
)

func TestAggregateValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  AggregateConfig
		want string // error substring; "" = valid
	}{
		{"const-ok", AggregateConfig{Kind: KindConst, RateBps: 1e6}, ""},
		{"onoff-ok", AggregateConfig{Kind: KindOnOff, RateBps: 1e6, OnFor: sim.Second, OffFor: sim.Second}, ""},
		{"unknown-kind", AggregateConfig{Kind: "poisson", RateBps: 1e6}, "unknown aggregate kind"},
		{"empty-kind", AggregateConfig{RateBps: 1e6}, "unknown aggregate kind"},
		{"const-zero-rate", AggregateConfig{Kind: KindConst}, "positive rate"},
		{"const-negative-rate", AggregateConfig{Kind: KindConst, RateBps: -3}, "positive rate"},
		{"const-with-schedule", AggregateConfig{Kind: KindConst, RateBps: 1e6, OnFor: sim.Second}, "on/off schedule"},
		{"onoff-missing-off", AggregateConfig{Kind: KindOnOff, RateBps: 1e6, OnFor: sim.Second}, "positive on/off"},
		{"negative-start", AggregateConfig{Kind: KindConst, RateBps: 1e6, Start: -sim.Second}, "non-negative"},
		{"stop-before-start", AggregateConfig{Kind: KindConst, RateBps: 1e6, Start: 2 * sim.Second, Stop: sim.Second}, "not after start"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewCoupler(c.cfg, func(sim.Time) float64 { return 1e6 }, func() int { return 0 })
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// runCoupler drives one coupler on a fresh simulator against a constant
// capacity and a fixed packet backlog, returning it for inspection.
func runCoupler(t *testing.T, cfg AggregateConfig, muBps float64, packetBacklog int, dur sim.Time) *Coupler {
	t.Helper()
	c, err := NewCoupler(cfg,
		func(sim.Time) float64 { return muBps },
		func() int { return packetBacklog })
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	c.Start(s, dur)
	s.RunUntil(dur)
	return c
}

// TestCouplerDeterminism: the aggregate is a pure function of its
// inputs — two identical runs produce bit-identical stats.
func TestCouplerDeterminism(t *testing.T) {
	cfg := AggregateConfig{Kind: KindOnOff, Flows: 50, RateBps: 30e6,
		OnFor: 3 * sim.Second, OffFor: sim.Second, Ramp: 2 * sim.Second}
	a := runCoupler(t, cfg, 20e6, 3000, 20*sim.Second).Stats()
	b := runCoupler(t, cfg, 20e6, 3000, 20*sim.Second).Stats()
	if a != b {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestCouplerConservation: every offered byte is either served, still
// queued, or explicitly dropped — nothing leaks, in underload or in
// sustained overload against the backlog cap.
func TestCouplerConservation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rateBps float64
	}{
		{"underload", 4e6},
		{"overload", 30e6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := runCoupler(t, AggregateConfig{Kind: KindConst, RateBps: tc.rateBps},
				10e6, 0, 10*sim.Second)
			st := c.Stats()
			got := st.ServedBytes + st.DroppedBytes + st.FinalQueueBytes
			if diff := math.Abs(got - st.ArrivedBytes); diff > 1e-6*st.ArrivedBytes {
				t.Fatalf("byte conservation broken: arrived %.0f != served %.0f + dropped %.0f + queued %.0f",
					st.ArrivedBytes, st.ServedBytes, st.DroppedBytes, st.FinalQueueBytes)
			}
			if tc.rateBps > 10e6 && st.DroppedBytes == 0 {
				t.Fatalf("sustained overload never hit the backlog cap")
			}
			if st.Steps == 0 {
				t.Fatal("coupler never stepped")
			}
		})
	}
}

// TestOnOffDutyCycle: on an uncongested link the onoff aggregate's
// served bytes match offered-rate x duty-cycle x time.
func TestOnOffDutyCycle(t *testing.T) {
	const (
		rate = 2e6
		dur  = 20 * sim.Second
	)
	c := runCoupler(t, AggregateConfig{
		Kind: KindOnOff, RateBps: rate,
		OnFor: 3 * sim.Second, OffFor: sim.Second,
	}, 50e6, 0, dur)
	st := c.Stats()
	want := rate / 8 * dur.Seconds() * 3 / 4 // 75% duty cycle
	if diff := math.Abs(st.ServedBytes-want) / want; diff > 0.02 {
		t.Fatalf("onoff served %.0f bytes, want ~%.0f (duty cycle broken, diff %.1f%%)",
			st.ServedBytes, want, diff*100)
	}
	if st.DroppedBytes != 0 {
		t.Fatalf("uncongested onoff run dropped %.0f bytes", st.DroppedBytes)
	}
}
