// BBR (Cardwell et al. 2016), simplified to the elements that determine
// its behaviour on time-varying wireless links: windowed-max bandwidth and
// windowed-min RTT filters, startup/drain, the ProbeBW pacing-gain cycle
// and periodic ProbeRTT. The paper (§2, fn. 1) observes that BBR's pulsed
// probing overshoots on variable links, producing queuing — the same
// behaviour this model reproduces.
package cc

import (
	"abc/internal/packet"
	"abc/internal/sim"
)

// bwSample is a timestamped delivery-rate measurement.
type bwSample struct {
	at  sim.Time
	bps float64
}

// maxFilter keeps the maximum of non-negative samples, added at
// non-decreasing times, over a sliding time window. It is a monotonic
// deque: samples[head:] holds, oldest first, only the samples no later
// one is at least as large as, so their values strictly decrease and the
// front is the window's maximum. A sample is evicted once it is older
// than the window at an add, as when every sample was kept and scanned.
type maxFilter struct {
	window  sim.Time
	samples []bwSample
	head    int
}

func (f *maxFilter) add(now sim.Time, v float64) {
	n := len(f.samples)
	for n > f.head && f.samples[n-1].bps <= v {
		n--
	}
	f.samples = f.samples[:n]
	if n == cap(f.samples) && f.head >= n/2 {
		// Reuse the array: the dead prefix is at least half of it.
		n = copy(f.samples, f.samples[f.head:])
		f.samples, f.head = f.samples[:n], 0
	}
	f.samples = append(f.samples, bwSample{now, v})
	for f.head < len(f.samples) && f.samples[f.head].at < now-f.window {
		f.head++
	}
}

// max returns the largest sample in the window, or 0 with none.
func (f *maxFilter) max() float64 {
	if f.head == len(f.samples) {
		return 0
	}
	return f.samples[f.head].bps
}

// BBR is the simplified BBR v1 model.
type BBR struct {
	state       int // 0 startup, 1 drain, 2 probeBW, 3 probeRTT
	btlBw       maxFilter
	fullBwCount int
	fullBw      float64

	cycleIndex  int
	cycleStart  sim.Time
	probeRTTEnd sim.Time
	lastProbe   sim.Time

	// delivery-rate estimation
	lastAckTime  sim.Time
	ackedInRound float64

	minRTT  sim.Time // cached from the endpoint for CwndPkts
	pktSize float64
}

var bbrGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// NewBBR returns a simplified BBR sender.
func NewBBR() *BBR {
	b := new(BBR)
	b.Reset()
	return b
}

// Reset implements Algorithm. The bandwidth filter keeps its samples'
// array, emptied.
func (b *BBR) Reset() {
	*b = BBR{
		btlBw:   maxFilter{window: 10 * sim.Second, samples: b.btlBw.samples[:0]},
		pktSize: packet.MTU,
	}
}

// bdpPkts returns the estimated bandwidth-delay product in packets.
func (b *BBR) bdpPkts(e *Endpoint) float64 {
	bw := b.btlBw.max()
	rtt := e.MinRTT()
	if bw <= 0 || rtt <= 0 {
		return 4
	}
	return bw * rtt.Seconds() / 8 / b.pktSize
}

// OnAck implements Algorithm.
func (b *BBR) OnAck(now sim.Time, e *Endpoint, info AckInfo) {
	if info.AckedBytes == 0 {
		return
	}
	b.minRTT = e.MinRTT()
	// Delivery-rate sample: bytes acked over the inter-ACK gap gives a
	// noisy instantaneous rate; smooth over the last SRTT by counting
	// bytes per round.
	b.ackedInRound += float64(info.AckedBytes)
	rtt := e.SRTT()
	if rtt <= 0 {
		rtt = 100 * sim.Millisecond
	}
	if b.lastAckTime == 0 {
		b.lastAckTime = now
	}
	if now-b.lastAckTime >= rtt/4 {
		bps := b.ackedInRound * 8 / (now - b.lastAckTime).Seconds()
		b.btlBw.add(now, bps)
		b.ackedInRound = 0
		b.lastAckTime = now
	}

	switch b.state {
	case 0: // startup: exit when bandwidth stops growing 25% per round
		bw := b.btlBw.max()
		if bw > b.fullBw*1.25 {
			b.fullBw = bw
			b.fullBwCount = 0
		} else if bw > 0 {
			b.fullBwCount++
			if b.fullBwCount >= 3 {
				b.state = 1
			}
		}
	case 1: // drain: until inflight falls to the BDP
		if float64(info.Inflight) <= b.bdpPkts(e) {
			b.state = 2
			b.cycleStart = now
			b.cycleIndex = 0
			b.lastProbe = now
		}
	case 2: // probeBW: rotate the gain cycle each min RTT
		minRTT := e.MinRTT()
		if minRTT <= 0 {
			minRTT = 100 * sim.Millisecond
		}
		if now-b.cycleStart > minRTT {
			b.cycleStart = now
			b.cycleIndex = (b.cycleIndex + 1) % len(bbrGains)
		}
		if now-b.lastProbe > 10*sim.Second {
			b.state = 3
			b.probeRTTEnd = now + 200*sim.Millisecond
		}
	case 3: // probeRTT: small window for 200 ms
		if now > b.probeRTTEnd {
			b.state = 2
			b.lastProbe = now
			b.cycleStart = now
		}
	}
}

// OnCongestion implements Algorithm. BBR v1 ignores individual losses.
func (b *BBR) OnCongestion(now sim.Time, e *Endpoint) {}

// OnRTO implements Algorithm.
func (b *BBR) OnRTO(now sim.Time, e *Endpoint) {
	// Restart bandwidth discovery after a timeout.
	b.fullBw = 0
	b.fullBwCount = 0
	b.state = 0
}

// CwndPkts implements Algorithm.
func (b *BBR) CwndPkts() float64 {
	switch b.state {
	case 0:
		return 2.885 * b.lastBDP()
	case 3:
		return 4
	default:
		return 2 * b.lastBDP()
	}
}

// lastBDP is the BDP in packets from the cached filter state; a floor
// keeps startup moving before any samples exist.
func (b *BBR) lastBDP() float64 {
	bw := b.btlBw.max()
	rtt := b.minRTT
	if bw <= 0 || rtt <= 0 {
		return 4
	}
	bdp := bw * rtt.Seconds() / 8 / b.pktSize
	if bdp < 4 {
		bdp = 4
	}
	return bdp
}

// PacingRate implements Pacer.
func (b *BBR) PacingRate(now sim.Time) (float64, bool) {
	bw := b.btlBw.max()
	if bw <= 0 {
		return 10e6 * 2.885, true // startup probing floor
	}
	gain := 1.0
	switch b.state {
	case 0:
		gain = 2.885
	case 1:
		gain = 1 / 2.885
	case 2:
		gain = bbrGains[b.cycleIndex]
	case 3:
		gain = 0.5
	}
	return bw * gain, true
}
