package abc

import (
	"math/rand"
	"testing"

	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// TestLyingRouterPromotesBrakes: with LieFraction 1 every brake-bound
// packet — demoted by the bucket or already braked on arrival — leaves
// as a forged accelerate, and LiePromoted counts each one.
func TestLyingRouterPromotesBrakes(t *testing.T) {
	cfg := DefaultRouterConfig()
	cfg.LieFraction = 1
	r := NewRouter(cfg)
	r.rng = rand.New(rand.NewSource(1))
	// Zero capacity → target rate 0 → every accel is demoted... and then
	// the liar promotes it right back.
	r.SetCapacityProvider(func(sim.Time) float64 { return 0 })
	const n = 20
	for i := 0; i < n; i++ {
		r.Enqueue(0, accelPkt(int64(i)))
	}
	for i := 0; i < n; i++ {
		p := r.Dequeue(sim.Time(i) * sim.Millisecond)
		if p.ECN != packet.Accel {
			t.Fatalf("packet %d left with ECN %d, want forged Accel", i, p.ECN)
		}
		p.Release()
	}
	if r.BrakeMarked != n {
		t.Errorf("BrakeMarked = %d, want %d (honest bucket still demoted)", r.BrakeMarked, n)
	}
	if r.LiePromoted != n {
		t.Errorf("LiePromoted = %d, want %d", r.LiePromoted, n)
	}
}

// TestHonestRouterDrawsNothing: LieFraction 0 never touches the RNG, so
// honest routers are byte-identical with and without an attached stream.
func TestHonestRouterDrawsNothing(t *testing.T) {
	r := testRouter(1e6)
	rng := rand.New(rand.NewSource(7))
	want := rand.New(rand.NewSource(7)).Int63()
	r.rng = rng
	for i := 0; i < 10; i++ {
		r.Enqueue(0, accelPkt(int64(i)))
	}
	for i := 0; i < 10; i++ {
		if p := r.Dequeue(sim.Time(i) * sim.Millisecond); p != nil {
			p.Release()
		}
	}
	if r.LiePromoted != 0 {
		t.Errorf("LiePromoted = %d on honest router", r.LiePromoted)
	}
	if got := rng.Int63(); got != want {
		t.Error("honest router consumed from the RNG stream")
	}
}

// TestLieFractionViaBuildSpec: a lie reaches the router through the
// registry's one Config, and is an error wherever it could not be
// honoured — out of range, or on a router that draws from no random
// stream (an "abc" built without one, the proxied router; the dual
// queue's child is internal/qdisc's conformance test's).
func TestLieFractionViaBuildSpec(t *testing.T) {
	lie := func(f float64) *RouterConfig {
		cfg := DefaultRouterConfig()
		cfg.LieFraction = f
		return &cfg
	}
	rng := rand.New(rand.NewSource(1))
	q, err := qdisc.Build(qdisc.BuildSpec{Kind: "abc", Config: lie(0.25), Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	r := q.(*Router)
	if r.Cfg.LieFraction != 0.25 {
		t.Errorf("LieFraction = %g, want 0.25", r.Cfg.LieFraction)
	}
	if r.rng == nil {
		t.Error("builder did not attach the RNG")
	}
	for _, bad := range []struct {
		kind string
		lie  float64
		rng  *rand.Rand
	}{
		{"abc", 1.5, rng}, {"abc", -0.1, rng}, {"abc", 0.25, nil}, {"abc-proxied", 0.25, rng},
	} {
		if _, err := qdisc.Build(qdisc.BuildSpec{Kind: bad.kind, Config: lie(bad.lie), Rand: bad.rng}); err == nil {
			t.Errorf("%s: lie %g (rng %v) accepted", bad.kind, bad.lie, bad.rng != nil)
		}
	}
}
