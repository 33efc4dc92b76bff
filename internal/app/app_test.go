package app

import (
	"math/rand"
	"testing"

	"abc/internal/metrics"
	"abc/internal/sim"
)

func TestBoundedParetoStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := BoundedPareto{Min: 10 * 1024, Max: 1024 * 1024, Alpha: 1.2}
	small := 0
	for i := 0; i < 20000; i++ {
		n := d.Draw(rng)
		if n < d.Min || n > d.Max {
			t.Fatalf("draw %d outside [%d, %d]", n, d.Min, d.Max)
		}
		if n < 4*d.Min {
			small++
		}
	}
	// Heavy-tailed web sizes: most flows are mice.
	if frac := float64(small) / 20000; frac < 0.5 {
		t.Errorf("only %.2f of draws were mice; distribution is not heavy-tailed-ish", frac)
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if n := (BoundedPareto{Min: 500, Max: 500, Alpha: 1.2}).Draw(rng); n != 500 {
		t.Errorf("degenerate range drew %d, want 500", n)
	}
}

func TestChoiceWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Choice{Sizes: []int{100, 200}, Weights: []float64{0, 1}}
	for i := 0; i < 100; i++ {
		if n := c.Draw(rng); n != 200 {
			t.Fatalf("zero-weight size drawn: %d", n)
		}
	}
	if n := (Choice{}).Draw(rng); n != 0 {
		t.Errorf("empty choice drew %d, want 0", n)
	}
}

func TestArrivalGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := Poisson{PerSec: 10}
	var sum sim.Time
	for i := 0; i < 5000; i++ {
		g := p.Next(rng)
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	mean := sum.Seconds() / 5000
	if mean < 0.08 || mean > 0.12 {
		t.Errorf("poisson mean gap %.4f s, want ~0.1 s", mean)
	}
	if g := (Deterministic{Gap: sim.Second}).Next(rng); g != sim.Second {
		t.Errorf("deterministic gap %v, want 1 s", g)
	}
}

// fakeTransport completes every queued transfer at a fixed download
// rate, modelling an otherwise-idle link.
type fakeTransport struct {
	s    *sim.Simulator
	bps  float64
	app  App
	busy bool
}

func (f *fakeTransport) Queue(n int) {
	if f.busy {
		panic("app queued a transfer while one was in flight")
	}
	f.busy = true
	f.s.After(sim.FromSeconds(float64(n)*8/f.bps), func() {
		f.busy = false
		f.app.OnTransferComplete(f.s.Now())
	})
}

func TestABRFastLinkClimbsLadderNoRebuffer(t *testing.T) {
	s := sim.New(1)
	ft := &fakeTransport{s: s, bps: 20e6}
	a := NewABR(s, ft, ABRConfig{})
	ft.app = a
	s.At(0, func() { a.Start(s.Now()) })
	s.RunUntil(60 * sim.Second)
	a.Finish(60 * sim.Second)
	q := a.QoE()
	if q.Chunks == 0 {
		t.Fatal("no chunks downloaded")
	}
	if q.RebufferRatio != 0 {
		t.Errorf("fast link rebuffered: %+v", q)
	}
	// A 20 Mbit/s link sustains the top rung (4300 kbps); the session
	// mean must sit well above the ladder floor.
	if q.MeanKbps < 2000 {
		t.Errorf("mean bitrate %.0f kbps too low for a 20 Mbit/s link", q.MeanKbps)
	}
	// Buffer-cap pacing keeps the client from downloading the whole
	// session instantly: chunks is bounded by playable time.
	maxChunks := int(60/2) + int(16/2) + 2
	if q.Chunks > maxChunks {
		t.Errorf("downloaded %d chunks, cap pacing should bound near %d", q.Chunks, maxChunks)
	}
}

func TestABRSlowLinkStaysLowAndRebuffers(t *testing.T) {
	s := sim.New(1)
	// 200 kbit/s cannot sustain even the 300 kbps floor: the client must
	// pin the bottom rung and stall.
	ft := &fakeTransport{s: s, bps: 200e3}
	a := NewABR(s, ft, ABRConfig{})
	ft.app = a
	s.At(0, func() { a.Start(s.Now()) })
	s.RunUntil(60 * sim.Second)
	a.Finish(60 * sim.Second)
	q := a.QoE()
	if q.MeanKbps != 300 {
		t.Errorf("mean bitrate %.0f kbps, want pinned at 300", q.MeanKbps)
	}
	if q.Switches != 0 {
		t.Errorf("switches %d, want 0 when pinned", q.Switches)
	}
	if q.RebufferRatio <= 0.2 {
		t.Errorf("rebuffer ratio %.3f, want substantial stalling on a starved link", q.RebufferRatio)
	}
}

func TestRPCThinkLoopRecordsFCT(t *testing.T) {
	s := sim.New(2)
	ft := &fakeTransport{s: s, bps: 8e6}
	rec := &metrics.DelayRecorder{}
	r := NewRPC(s, ft, RPCConfig{ThinkMean: 50 * sim.Millisecond, RespBytes: 100_000, FCT: rec, MeasureFrom: sim.Second}, s.Rand())
	ft.app = r
	s.At(0, func() { r.Start(s.Now()) })
	s.RunUntil(30 * sim.Second)
	r.Finish(30 * sim.Second)
	if r.Calls < 50 {
		t.Fatalf("only %d calls in 30 s with 150 ms cycle", r.Calls)
	}
	if rec.Count() >= r.Calls {
		t.Errorf("MeasureFrom did not exclude warmup calls: %d recorded of %d", rec.Count(), r.Calls)
	}
	// 100 KB at 8 Mbit/s is exactly 100 ms per call on the fake link.
	if m := rec.Mean(); m < 99 || m > 101 {
		t.Errorf("FCT mean %.2f ms, want ~100 ms", m)
	}
	if r.FCT() != rec {
		t.Error("FCT() does not expose the shared recorder")
	}
}
