package wifi

import (
	"math"
	"testing"
	"testing/quick"

	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

func TestBitrateForMCS(t *testing.T) {
	if got := BitrateForMCS(0); got != 6.5e6 {
		t.Errorf("MCS0 = %v", got)
	}
	if got := BitrateForMCS(7); got != 65e6 {
		t.Errorf("MCS7 = %v", got)
	}
	// Clamping.
	if got := BitrateForMCS(-3); got != 6.5e6 {
		t.Errorf("MCS-3 = %v", got)
	}
	if got := BitrateForMCS(99); got != 65e6 {
		t.Errorf("MCS99 = %v", got)
	}
}

func fill(s *sim.Simulator, l *Link, n int) {
	for i := 0; i < n; i++ {
		l.Recv(packet.NewData(0, int64(i), packet.MTU, s.Now()))
	}
}

func TestLinkBatchesUpToM(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultLinkConfig()
	cfg.MaxBatch = 8
	var batches []int
	sink := &packet.Sink{}
	l := NewLink(s, cfg, qdisc.NewDropTail(0), sink, nil)
	l.OnBatch = func(now sim.Time, b int, tia sim.Time, bitrate float64) {
		batches = append(batches, b)
	}
	fill(s, l, 20)
	s.Run()
	// The first frame departs alone (the link was idle when it arrived);
	// the backlog then drains in full batches of M with a remainder.
	total := 0
	full := 0
	for _, b := range batches {
		if b > 8 {
			t.Errorf("batch of %d exceeds M=8", b)
		}
		if b == 8 {
			full++
		}
		total += b
	}
	if total != 20 || full < 2 {
		t.Errorf("batches = %v", batches)
	}
	if sink.Count != 20 {
		t.Errorf("delivered = %d", sink.Count)
	}
}

func TestLinkTIAMatchesModel(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultLinkConfig()
	cfg.OverheadJitter = 0 // deterministic
	cfg.MCS = FixedMCS(3)  // 26 Mbit/s
	var tias []sim.Time
	var sizes []int
	l := NewLink(s, cfg, qdisc.NewDropTail(0), &packet.Sink{}, nil)
	l.OnBatch = func(now sim.Time, b int, tia sim.Time, bitrate float64) {
		tias = append(tias, tia)
		sizes = append(sizes, b)
	}
	fill(s, l, 25) // 20 + 5
	s.Run()
	for i := range tias {
		want := sim.FromSeconds(float64(sizes[i]*packet.MTU*8)/26e6) + overheadBase
		if d := tias[i] - want; d < -sim.Microsecond || d > sim.Microsecond {
			t.Errorf("batch %d (b=%d): TIA %v, want %v", i, sizes[i], tias[i], want)
		}
	}
}

// TestEstimatorExtrapolation: feeding the estimator a partial batch with
// zero jitter must reproduce the exact backlogged capacity (Eq. 6–8).
func TestEstimatorExtrapolation(t *testing.T) {
	const M, S = 20, packet.MTU
	est := NewEstimator(M, S, 40*sim.Millisecond)
	est.Cap = false
	R := 26e6
	h := 1200 * sim.Microsecond
	for _, b := range []int{1, 5, 13, 20} {
		est.samples = est.samples[:0]
		est.head = 0
		tia := sim.FromSeconds(float64(b*S*8)/R) + h
		est.OnBlockAck(sim.Second, b, tia, R)
		got := est.RateBps(sim.Second)
		want := float64(M*S*8) / (float64(M*S*8)/R + h.Seconds())
		if math.Abs(got-want)/want > 1e-6 {
			t.Errorf("b=%d: mu = %.0f, want %.0f", b, got, want)
		}
	}
}

// TestEstimatorBatchInvariance is the heart of §4.1: the capacity
// estimate must not depend on the batch size the observation came from,
// for any (b, R, h) combination.
func TestEstimatorBatchInvariance(t *testing.T) {
	f := func(bRaw, mcsRaw uint8, hRawUs uint16) bool {
		const M, S = 32, packet.MTU
		b := 1 + int(bRaw)%M
		R := BitrateForMCS(int(mcsRaw) % 8)
		h := sim.Time(hRawUs%5000) * sim.Microsecond
		est := NewEstimator(M, S, 40*sim.Millisecond)
		est.Cap = false
		tia := sim.FromSeconds(float64(b*S*8)/R) + h
		est.OnBlockAck(sim.Second, b, tia, R)
		got := est.RateBps(sim.Second)
		want := float64(M*S*8) / (float64(M*S*8)/R + h.Seconds())
		return math.Abs(got-want)/want < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEstimatorCapAtTwiceDequeueRate(t *testing.T) {
	const M, S = 20, packet.MTU
	est := NewEstimator(M, S, 100*sim.Millisecond)
	R := 65e6
	// A trickle: one 1-frame batch per 50 ms => dequeue rate 240 kbit/s.
	now := sim.Time(0)
	for i := 0; i < 4; i++ {
		now += 50 * sim.Millisecond
		tia := sim.FromSeconds(float64(S*8)/R) + sim.Millisecond
		est.OnBlockAck(now, 1, tia, R)
	}
	got := est.RateBps(now)
	deqRate := 3.0 * S * 8 / 0.1 // 3 batches within the 100 ms window
	cap2 := 2 * deqRate
	if got > cap2*1.01 {
		t.Errorf("estimate %.1f Mbit/s exceeds 2x dequeue rate %.1f", got/1e6, cap2/1e6)
	}
}

func TestEstimatorWindowExpiryHoldsLastValue(t *testing.T) {
	est := NewEstimator(20, packet.MTU, 40*sim.Millisecond)
	est.Cap = false
	est.OnBlockAck(0, 20, 10*sim.Millisecond, 26e6)
	inWindow := est.RateBps(20 * sim.Millisecond)
	// Past the window the estimator holds the last estimate (a lightly
	// loaded link must not read as zero capacity, which would deadlock
	// an ABC router into permanent brakes).
	if held := est.RateBps(sim.Second); held != inWindow {
		t.Errorf("held estimate %v != windowed estimate %v", held, inWindow)
	}
	// With the cap enabled, the stale estimate is bounded by the (zero)
	// recent dequeue rate only if packets stopped entirely — the cap
	// horizon is 5x the window.
	est.Cap = true
	if capped := est.RateBps(sim.Second); capped > inWindow {
		t.Errorf("capped stale estimate %v exceeds raw %v", capped, inWindow)
	}
}

func TestEstimatorIgnoresInvalid(t *testing.T) {
	est := NewEstimator(20, packet.MTU, 40*sim.Millisecond)
	est.OnBlockAck(0, 0, sim.Millisecond, 26e6)
	est.OnBlockAck(0, 5, 0, 26e6)
	est.OnBlockAck(0, 5, sim.Millisecond, 0)
	if len(est.samples) != 0 {
		t.Error("invalid observations accepted")
	}
}

func TestTrueCapacityBps(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.MCS = FixedMCS(7)
	got := TrueCapacityBps(cfg, 0)
	// Must be below the PHY rate (batch overhead costs ~25% at MCS 7)
	// but above 70% of it.
	if got >= 65e6 || got < 0.7*65e6 {
		t.Errorf("true capacity %.1f Mbit/s", got/1e6)
	}
}

// TestLinkEstimatorClosedLoop: a backlogged link with the estimator
// attached must report close to the true capacity.
func TestLinkEstimatorClosedLoop(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultLinkConfig()
	cfg.MCS = FixedMCS(5)
	est := NewEstimator(cfg.MaxBatch, frameSize, 40*sim.Millisecond)
	l := NewLink(s, cfg, qdisc.NewDropTail(0), &packet.Sink{}, est)
	// Keep it backlogged.
	seq := int64(0)
	var feed func()
	feed = func() {
		for i := 0; i < 40; i++ {
			l.Recv(packet.NewData(0, seq, packet.MTU, s.Now()))
			seq++
		}
		if s.Now() < 3*sim.Second {
			s.After(10*sim.Millisecond, feed)
		}
	}
	s.After(10*sim.Millisecond, feed)
	s.RunUntil(3 * sim.Second)
	got := est.RateBps(3 * sim.Second)
	want := TrueCapacityBps(cfg, 0)
	if math.Abs(got-want)/want > 0.08 {
		t.Errorf("backlogged estimate %.1f Mbit/s, true %.1f", got/1e6, want/1e6)
	}
}

func TestLinkQueueDelayAccounted(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultLinkConfig()
	cfg.MCS = FixedMCS(0) // slow link: visible delay
	var delays []sim.Time
	l := NewLink(s, cfg, qdisc.NewDropTail(0), packet.NodeFunc(func(p *packet.Packet) {
		delays = append(delays, p.QueueDelay)
	}), nil)
	fill(s, l, 60) // 3 batches at MCS0: each batch ~37ms+overhead
	s.Run()
	if len(delays) != 60 {
		t.Fatalf("delivered %d", len(delays))
	}
	if delays[59] <= delays[0] {
		t.Error("later packets should queue longer")
	}
}
