// Package wifi models an 802.11n access point at the fidelity ABC's
// link-rate estimator needs (§4.1): A-MPDU batch transmission, block
// acknowledgements, per-MCS PHY bitrates and stochastic per-batch overhead
// (channel contention, preamble, ACK turnaround). It also implements the
// paper's estimator itself: from each (batch size, inter-ACK time,
// bitrate) observation it extrapolates the backlogged inter-ACK time
// (Eq. 8) and hence the link capacity (Eq. 6).
package wifi

import (
	"fmt"
	"math/rand"

	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// MCSRates maps 802.11n MCS index (20 MHz, one spatial stream, 800 ns GI)
// to PHY bitrate in bits/sec.
var MCSRates = []float64{
	6.5e6, 13e6, 19.5e6, 26e6, 39e6, 52e6, 58.5e6, 65e6,
}

// BitrateForMCS returns the PHY rate for an MCS index, clamping the index
// to the valid range.
func BitrateForMCS(idx int) float64 {
	if idx < 0 {
		idx = 0
	}
	if idx >= len(MCSRates) {
		idx = len(MCSRates) - 1
	}
	return MCSRates[idx]
}

const (
	// frameSize is S in bytes: all frames are MTU-sized (footnote 4).
	frameSize int = packet.MTU
	// overheadBase is the deterministic part of h(t): DIFS, preamble,
	// block-ACK turnaround.
	overheadBase sim.Time = 1200 * sim.Microsecond
	// defaultMaxBatch is the paper's testbed A-MPDU limit M.
	defaultMaxBatch int = 20
)

// defaultMCS is the paper's testbed MCS index, held for the whole run.
const defaultMCS = 5

// MCS is a link's MCS index over time, as a value: a fixed index, or a
// walk that steps every two seconds (experiments vary it to model user
// movement). The zero value holds the testbed's MCS 5.
type MCS struct {
	// Index fixes the MCS; nil takes the testbed's.
	Index *int `spec:"mcs"`
	// Walk, when set, moves the index instead: "alternating" between 1
	// and 7 (Fig. 10), or "brownian", the Appendix B random walk on
	// [3, 7] drawn from Seed (Fig. 14).
	Walk string `spec:"mcs_walk"`
	Seed int64  `spec:"mcs_seed"`
}

// FixedMCS holds index i for the whole run.
func FixedMCS(i int) MCS { return MCS{Index: &i} }

// AlternatingMCS alternates between MCS 1 and 7 every two seconds
// (Fig. 10's emulated user movement).
func AlternatingMCS() MCS { return MCS{Walk: "alternating"} }

// BrownianMCS is the Appendix B random walk on [3, 7] drawn from seed
// (Fig. 14).
func BrownianMCS(seed int64) MCS { return MCS{Walk: "brownian", Seed: seed} }

// Validate rejects an unknown walk and fields the MCS would ignore.
func (m MCS) Validate() error {
	switch {
	case m.Walk != "" && m.Walk != "alternating" && m.Walk != "brownian":
		return fmt.Errorf("wifi: unknown MCS walk %q (want alternating or brownian)", m.Walk)
	case m.Walk != "" && m.Index != nil, m.Walk != "brownian" && m.Seed != 0:
		return fmt.Errorf("wifi: a walk replaces the fixed MCS index, and only the brownian walk takes a seed")
	}
	return nil
}

// at returns the index as a function of time; the brownian walk is drawn
// once, here, long enough for any run.
func (m MCS) at() func(now sim.Time) int {
	switch m.Walk {
	case "alternating":
		return func(now sim.Time) int {
			if int(now/(2*sim.Second))%2 == 0 {
				return 1
			}
			return 7
		}
	case "brownian":
		walk := make([]int, 512)
		state := uint64(m.Seed)*2862933555777941757 + 3037000493
		cur := 5
		for i := range walk {
			state = state*6364136223846793005 + 1442695040888963407
			switch state >> 62 {
			case 0, 1:
				cur++
			case 2, 3:
				cur--
			}
			cur = min(max(cur, 3), 7)
			walk[i] = cur
		}
		return func(now sim.Time) int { return walk[min(int(now/(2*sim.Second)), len(walk)-1)] }
	}
	idx := defaultMCS
	if m.Index != nil {
		idx = *m.Index
	}
	return func(sim.Time) int { return idx }
}

// LinkConfig parameterizes the modelled AP.
type LinkConfig struct {
	// MaxBatch is M, the negotiated A-MPDU limit in frames.
	MaxBatch int
	// OverheadJitter is the half-width of the uniform contention jitter
	// added to h(t); Fig. 4's vertical spread comes from this.
	OverheadJitter sim.Time
	// MCS is the MCS index over time.
	MCS MCS
}

// DefaultLinkConfig models the paper's testbed defaults.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		MaxBatch:       defaultMaxBatch,
		OverheadJitter: 900 * sim.Microsecond,
	}
}

// BatchObserver receives one observation per block ACK: the batch size b,
// the inter-ACK time TIA(b, t) and the PHY bitrate R used.
type BatchObserver func(now sim.Time, b int, tia sim.Time, bitrate float64)

// Link is the AP: packets enter a qdisc (droptail or an ABC router) and
// leave in A-MPDU batches. It embeds the bare netem.Port, so it is an
// obs.Sink like the netem links but hosts no fluid background.
type Link struct {
	netem.Port
	Cfg LinkConfig
	// Est, when set, is fed every block ACK and provides the capacity
	// estimate to a capacity-aware qdisc.
	Est *Estimator
	// OnBatch, if set, observes batches (Fig. 4 sampling).
	OnBatch BatchObserver

	rng  *rand.Rand
	mcs  func(now sim.Time) int
	busy bool
	// batch is the in-flight A-MPDU, reused across batches so the
	// per-batch path is allocation-free.
	batch        []*packet.Packet
	batchTIA     sim.Time
	batchBitrate float64
}

// NewLink wires an 802.11n link. If est is non-nil it becomes the
// capacity provider for capacity-aware qdiscs (the ABC deployment).
func NewLink(s *sim.Simulator, cfg LinkConfig, q qdisc.Qdisc, dst packet.Node, est *Estimator) *Link {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	l := &Link{Port: netem.Port{S: s, Q: q, Dst: dst}, Cfg: cfg, Est: est, rng: s.Rand(), mcs: cfg.MCS.at()}
	if est != nil {
		if ca, ok := q.(qdisc.CapacityAware); ok {
			ca.SetCapacityProvider(est.RateBps)
		}
	}
	return l
}

// Recv implements packet.Node.
func (l *Link) Recv(p *packet.Packet) {
	if l.Admit(l.S.Now(), p) && !l.busy {
		l.startBatch()
	}
}

// InService returns the A-MPDU in the air: the packets the link has
// dequeued and not yet delivered (empty while idle).
func (l *Link) InService() []*packet.Packet { return l.batch }

// overhead draws h(t) for one batch.
func (l *Link) overhead() sim.Time {
	j := l.Cfg.OverheadJitter
	if j <= 0 {
		return overheadBase
	}
	return overheadBase + sim.Time(l.rng.Int63n(int64(2*j))) - j
}

// startBatch assembles up to M frames and transmits them as one A-MPDU.
func (l *Link) startBatch() {
	now := l.S.Now()
	l.batch = l.batch[:0]
	for len(l.batch) < l.Cfg.MaxBatch {
		p := l.Q.Dequeue(now)
		if p == nil {
			break
		}
		l.batch = append(l.batch, p)
	}
	if len(l.batch) == 0 {
		l.busy = false
		return
	}
	l.busy = true
	b := len(l.batch)
	l.batchBitrate = BitrateForMCS(l.mcs(now))
	txTime := sim.FromSeconds(float64(b*frameSize*8) / l.batchBitrate)
	l.batchTIA = txTime + l.overhead()
	l.S.AfterArgs(l.batchTIA, linkFinishBatch, l, nil)
}

// linkFinishBatch is the static block-ACK callback (no per-batch
// closure).
func linkFinishBatch(a, _ any) { a.(*Link).finishBatch() }

// finishBatch fires at the block-ACK instant: it delivers the batch,
// feeds the estimator, and starts the next A-MPDU. A frame's sojourn ends
// here, not at batch start, so it includes the batch's airtime.
func (l *Link) finishBatch() {
	done := l.S.Now()
	b := len(l.batch)
	for i, p := range l.batch {
		l.batch[i] = nil
		l.Depart(done, p)
		l.Deliver(p)
	}
	if l.Est != nil {
		l.Est.OnBlockAck(done, b, l.batchTIA, l.batchBitrate)
	}
	if l.OnBatch != nil {
		l.OnBatch(done, b, l.batchTIA, l.batchBitrate)
	}
	l.startBatch()
}

// Estimator implements the paper's §4.1 link-rate estimation. On each
// block ACK it extrapolates what the inter-ACK time would have been for a
// full M-frame batch,
//
//	T̂IA(M, t) = TIA(b, t) + (M − b)·S/R        (Eq. 8)
//
// estimates the capacity µ̂(t) = M·S / T̂IA(M, t) (Eq. 6), smooths over a
// sliding window of length T (40 ms in the paper) and caps the prediction
// at twice the current dequeue rate, since ABC cannot more than double a
// sender's rate in one RTT.
type Estimator struct {
	// M and S mirror the link's negotiated batch limit and frame size.
	M int
	S int
	// Window is the smoothing window T.
	Window sim.Time
	// Cap enables the 2x-current-rate prediction cap.
	Cap bool

	samples []estSample
	head    int
	// deq meters dequeued bytes for the 2x cap over 5·Window, a longer
	// horizon than the estimate itself: with a lightly loaded link,
	// batches arrive sparser than T and a T-length cap window would
	// collapse to zero between batches.
	deq qdisc.RateMeter
	// lastMu holds the most recent per-batch estimate so a lightly
	// loaded link (batches sparser than the window) still reports its
	// last known capacity instead of zero, which would deadlock an ABC
	// router into permanent brakes.
	lastMu float64
}

type estSample struct {
	at sim.Time
	v  float64
}

// NewEstimator returns an estimator for a link with batch limit m and
// frame size s bytes.
func NewEstimator(m, s int, window sim.Time) *Estimator {
	if window <= 0 {
		window = 40 * sim.Millisecond
	}
	return &Estimator{M: m, S: s, Window: window, Cap: true}
}

// OnBlockAck feeds one batch observation.
func (e *Estimator) OnBlockAck(now sim.Time, b int, tia sim.Time, bitrate float64) {
	if b <= 0 || tia <= 0 || bitrate <= 0 {
		return
	}
	tiaFull := tia + sim.FromSeconds(float64((e.M-b)*e.S*8)/bitrate)
	mu := float64(e.M*e.S*8) / tiaFull.Seconds()
	e.samples = append(e.samples, estSample{now, mu})
	e.deq.Window = 5 * e.Window
	e.deq.Add(now, b*e.S)
	e.lastMu = mu
	e.prune(now)
}

func (e *Estimator) prune(now sim.Time) {
	for e.head < len(e.samples) && e.samples[e.head].at < now-e.Window {
		e.head++
	}
	if e.head > 64 && e.head*2 >= len(e.samples) {
		n := copy(e.samples, e.samples[e.head:])
		e.samples = e.samples[:n]
		e.head = 0
	}
}

// RateBps returns the smoothed capacity estimate µ̂(t) at time now.
func (e *Estimator) RateBps(now sim.Time) float64 {
	e.prune(now)
	n := len(e.samples) - e.head
	var mu float64
	if n == 0 {
		// No batch inside the window: hold the last known estimate.
		mu = e.lastMu
	} else {
		var sum float64
		for _, s := range e.samples[e.head:] {
			sum += s.v
		}
		mu = sum / float64(n)
	}
	if e.Cap && mu > 0 {
		// Dequeue rate over the (longer) cap horizon.
		e.deq.Window = 5 * e.Window
		cr := e.deq.BytesPerSec(now) * 8
		if cap2 := 2 * cr; mu > cap2 && cap2 > 0 {
			mu = cap2
		}
	}
	return mu
}

// TrueCapacityBps returns the ground-truth backlogged capacity of a link
// with the given config at time now: M frames per TIA(M) with the mean
// overhead. Fig. 5 compares estimates against this.
func TrueCapacityBps(cfg LinkConfig, now sim.Time) float64 {
	bitrate := BitrateForMCS(cfg.MCS.at()(now))
	tx := float64(cfg.MaxBatch*frameSize*8) / bitrate
	tia := tx + overheadBase.Seconds()
	return float64(cfg.MaxBatch*frameSize*8) / tia
}
