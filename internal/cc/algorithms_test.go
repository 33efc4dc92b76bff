package cc

import (
	"math"
	"math/rand"
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
)

// ack fabricates an AckInfo with a valid RTT sample.
func ack(rtt sim.Time) AckInfo {
	return AckInfo{
		Ack:        &packet.Packet{IsAck: true},
		RTT:        rtt,
		RTTValid:   true,
		AckedBytes: packet.MTU,
		Inflight:   10,
	}
}

// fakeEndpoint builds an endpoint carrying RTT state without a network.
func fakeEndpoint(srtt, minRTT sim.Time) *Endpoint {
	e := NewEndpoint(sim.New(1), 0, packet.NodeFunc(func(*packet.Packet) {}), &fixedWindow{w: 1})
	e.updateRTT(minRTT)
	for i := 0; i < 20; i++ {
		e.updateRTT(srtt)
	}
	return e
}

func TestCubicGrowthAndDecrease(t *testing.T) {
	c := NewCubic()
	e := fakeEndpoint(100*sim.Millisecond, 100*sim.Millisecond)
	now := sim.Time(0)
	// Slow start to 100 packets.
	for c.CwndPkts() < 100 {
		c.OnAck(now, e, ack(100*sim.Millisecond))
		now += sim.Millisecond
	}
	c.OnCongestion(now, e)
	w := c.CwndPkts()
	if w > 0.75*100 || w < 0.6*100 {
		t.Errorf("beta decrease to %v", w)
	}
	// After decrease the window regrows towards wMax (concave phase).
	for i := 0; i < 3000; i++ {
		now += 10 * sim.Millisecond
		c.OnAck(now, e, ack(100*sim.Millisecond))
	}
	if c.CwndPkts() < 95 {
		t.Errorf("cubic failed to regrow: %v", c.CwndPkts())
	}
}

// TestCubeIsPow pins the identity Cubic.update relies on: d*d*d is
// math.Pow(d, 3) to the bit, for magnitudes log-uniform over every
// normal cube (2⁻³⁴⁰ up to past the overflow edge) of both signs, ±0,
// ±Inf and the floats next to cbrt(MaxFloat64). Below 2⁻³⁴⁰ the cube
// is subnormal and the two may round differently; update's d = t − k
// of two times in seconds is 0 or far above that.
func TestCubeIsPow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	edge := math.Cbrt(math.MaxFloat64)
	for lo, hi, i := edge, edge, 0; i < 64; i++ {
		lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
		xs = append(xs, lo, hi)
	}
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, math.Exp2(-340+rng.Float64()*682))
	}
	for _, x := range xs {
		for _, v := range []float64{x, -x} {
			if got, want := v*v*v, math.Pow(v, 3); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v cubed: %v by multiplication, %v by math.Pow", v, got, want)
			}
		}
	}
}

func TestCubicSetCwndClamps(t *testing.T) {
	c := NewCubic()
	c.SetCwnd(0.1)
	if c.Cwnd() != 1 {
		t.Errorf("SetCwnd floor: %v", c.Cwnd())
	}
}

func TestVegasHoldsSmallQueue(t *testing.T) {
	v := NewVegas()
	e := fakeEndpoint(100*sim.Millisecond, 100*sim.Millisecond)
	now := sim.Time(0)
	// RTT == baseRTT: no queue, Vegas should grow.
	for i := 0; i < 400; i++ {
		now += 10 * sim.Millisecond
		v.OnAck(now, e, ack(100*sim.Millisecond))
	}
	grown := v.CwndPkts()
	if grown <= 4 {
		t.Errorf("no growth at empty queue: %v", grown)
	}
	// Large RTT inflation: Vegas must back off.
	for i := 0; i < 400; i++ {
		now += 10 * sim.Millisecond
		v.OnAck(now, e, ack(200*sim.Millisecond))
	}
	if v.CwndPkts() >= grown {
		t.Errorf("no decrease under queuing: %v >= %v", v.CwndPkts(), grown)
	}
}

func TestBBRTracksDeliveryRate(t *testing.T) {
	b := NewBBR()
	e := fakeEndpoint(100*sim.Millisecond, 100*sim.Millisecond)
	now := sim.Time(0)
	// Feed ~12 Mbit/s of ACKs for 3 seconds.
	gap := sim.FromSeconds(float64(packet.MTU*8) / 12e6)
	for now < 3*sim.Second {
		now += gap
		b.OnAck(now, e, ack(100*sim.Millisecond))
	}
	rate, ok := b.PacingRate(now)
	if !ok {
		t.Fatal("no pacing rate")
	}
	// Post-startup the pacing rate should be within a gain factor of
	// the true rate.
	if rate < 6e6 || rate > 40e6 {
		t.Errorf("pacing rate %.1f Mbit/s for a 12 Mbit/s link", rate/1e6)
	}
	if b.CwndPkts() < 4 {
		t.Errorf("cwnd %v below floor", b.CwndPkts())
	}
}

// scanMax is the windowed max maxFilter replaced: keep every sample, cut
// the expired prefix at each add, scan the rest at each query.
type scanMax struct {
	window  sim.Time
	samples []bwSample
}

func (f *scanMax) add(now sim.Time, v float64) {
	f.samples = append(f.samples, bwSample{now, v})
	cut := 0
	for cut < len(f.samples) && f.samples[cut].at < now-f.window {
		cut++
	}
	f.samples = f.samples[cut:]
}

func (f *scanMax) max() float64 {
	var m float64
	for _, s := range f.samples {
		if s.bps > m {
			m = s.bps
		}
	}
	return m
}

// TestMaxFilterMatchesScan: the monotonic deque returns exactly what the
// full scan did, on random streams full of tied values, repeated
// timestamps, zeros and gaps longer than the window.
func TestMaxFilterMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for stream := 0; stream < 200; stream++ {
		window := sim.Time(1+rng.Intn(50)) * sim.Millisecond
		f, ref := maxFilter{window: window}, scanMax{window: window}
		now := sim.Time(0)
		for i := 0; i < 2000; i++ {
			switch rng.Intn(4) {
			case 0: // same instant
			case 1:
				now += sim.Time(rng.Intn(3)) * window
			default:
				now += sim.Time(rng.Int63n(int64(window)))
			}
			v := float64(rng.Intn(8)) // few values: ties are the norm
			if rng.Intn(3) == 0 {
				v = rng.Float64() * 8
			}
			f.add(now, v)
			ref.add(now, v)
			if got, want := f.max(), ref.max(); got != want {
				t.Fatalf("stream %d, sample %d at %v: max %v, scan %v", stream, i, now, got, want)
			}
		}
	}
	var empty maxFilter
	if empty.max() != 0 {
		t.Error("empty filter max != 0")
	}
}

func TestCopaTargetRate(t *testing.T) {
	c := NewCopa()
	e := fakeEndpoint(100*sim.Millisecond, 100*sim.Millisecond)
	now := sim.Time(0)
	// Mild queuing (5 ms): the 1/(δ·dq) target is high, Copa grows.
	for i := 0; i < 400; i++ {
		now += 10 * sim.Millisecond
		c.OnAck(now, e, ack(105*sim.Millisecond))
	}
	grown := c.CwndPkts()
	if grown <= 4 {
		t.Errorf("no growth: %v", grown)
	}
	// Heavy queuing (300 ms): the target collapses, Copa must shrink.
	for i := 0; i < 2000; i++ {
		now += 10 * sim.Millisecond
		c.OnAck(now, e, ack(400*sim.Millisecond))
	}
	if c.CwndPkts() >= grown/2 {
		t.Errorf("no decrease under queuing: %v (was %v)", c.CwndPkts(), grown)
	}
}

func TestSproutProbesWhenUnqueued(t *testing.T) {
	s := NewSprout()
	e := fakeEndpoint(100*sim.Millisecond, 100*sim.Millisecond)
	now := sim.Time(0)
	w0 := s.CwndPkts()
	gap := sim.FromSeconds(float64(packet.MTU*8) / 10e6)
	for now < sim.Second {
		now += gap
		s.OnAck(now, e, ack(100*sim.Millisecond))
	}
	// RTT at the propagation floor: Sprout is self-limited and probes.
	if s.CwndPkts() <= w0 {
		t.Errorf("no probing at empty queue: %v", s.CwndPkts())
	}
}

func TestSproutForecastConservative(t *testing.T) {
	s := NewSprout()
	// Standing queue (srtt 100 ms over a 40 ms floor, above half the
	// 100 ms delay budget): the conservative forecast governs.
	e := fakeEndpoint(140*sim.Millisecond, 40*sim.Millisecond)
	now := sim.Time(0)
	gap := sim.FromSeconds(float64(packet.MTU*8) / 10e6)
	for now < 2*sim.Second {
		now += gap
		s.OnAck(now, e, ack(140*sim.Millisecond))
	}
	// 10 Mbit/s steady: the 100 ms budget allows ~83 packets; the
	// conservative forecast must be at or below that.
	w := s.CwndPkts()
	if w < 2 || w > 90 {
		t.Errorf("sprout window %v outside conservative range", w)
	}
}

func TestVerusBacksOffAboveSetpoint(t *testing.T) {
	v := NewVerus()
	e := fakeEndpoint(100*sim.Millisecond, 50*sim.Millisecond)
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now += 10 * sim.Millisecond
		v.OnAck(now, e, ack(100*sim.Millisecond)) // below 4x setpoint
	}
	grown := v.CwndPkts()
	if grown <= 4 {
		t.Errorf("no growth below setpoint: %v", grown)
	}
	for i := 0; i < 200; i++ {
		now += 10 * sim.Millisecond
		v.OnAck(now, e, ack(400*sim.Millisecond)) // above 4x50ms=200ms
	}
	if v.CwndPkts() >= grown {
		t.Errorf("no backoff above setpoint: %v", v.CwndPkts())
	}
}

func TestVivaceRespondsToUtility(t *testing.T) {
	v := NewVivace()
	e := fakeEndpoint(50*sim.Millisecond, 50*sim.Millisecond)
	now := sim.Time(0)
	// Feed plentiful ACKs at constant RTT: utility rises with rate, so
	// the rate should climb.
	r0, _ := v.PacingRate(now)
	for i := 0; i < 5000; i++ {
		now += 2 * sim.Millisecond
		v.OnAck(now, e, ack(50*sim.Millisecond))
	}
	r1, _ := v.PacingRate(now)
	if r1 <= r0 {
		t.Errorf("rate did not climb under good utility: %.1f -> %.1f Mbit/s", r0/1e6, r1/1e6)
	}
}
