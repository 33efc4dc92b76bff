// Package explicit implements the explicit congestion-control baselines
// the paper compares ABC against: XCP (Katabi et al. 2002), the paper's
// improved per-packet variant XCPw (the same XCP sender over the
// per-packet "xcpw" router, which alone does the extra work), RCP (Tai,
// Zhu, Dukkipati 2008) and VCP (Xia et al. 2005). Each consists of a
// router qdisc that computes feedback and a sender Algorithm that obeys
// it, communicating through the multi-bit header fields in
// internal/packet — the header space whose deployment cost motivates
// ABC's single-bit design.
//
// The reverse channel is not assumed lossless: receivers echo the
// multi-bit headers onto ACKs verbatim (packet.NewAck), and every router
// here applies its min/max rule to each packet it dequeues, ACKs
// included. Feedback riding an ACK through a congested reverse-path
// router is therefore tightened in flight — the multi-bit analogue of
// the accel/brake echo demotion ABC routers perform on ACK codepoints.
package explicit

import (
	"math"

	"abc/internal/cc"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

const (
	// xcpAlpha and xcpBeta are the efficiency-controller gains. The paper
	// uses 0.55 and 0.4, "the highest permissible stable values".
	xcpAlpha float64 = 0.55
	xcpBeta  float64 = 0.4
	// xcpWindow is the sliding measurement window for XCPw.
	xcpWindow sim.Time = 50 * sim.Millisecond
)

// XCPConfig parameterizes an XCP router.
type XCPConfig struct {
	// Limit bounds the queue in packets.
	Limit int
	// PerPacket enables XCPw: recompute aggregate feedback continuously
	// over a sliding window instead of once per control interval.
	PerPacket bool
}

// DefaultXCPConfig returns the paper's XCP router: per-interval feedback
// over the default buffer.
func DefaultXCPConfig() XCPConfig { return XCPConfig{Limit: qdisc.DefaultBuffer} }

// XCPRouter computes aggregate feedback φ = α·d·(C−y) − β·Q once per
// control interval (mean RTT) and apportions it per packet in proportion
// to each packet's byte share of the interval's traffic. Senders carry
// cwnd and RTT in the congestion header; routers only ever reduce the
// feedback field (min along the path).
type XCPRouter struct {
	Cfg XCPConfig
	qdisc.Queue
	qdisc.Capacity

	// Control-interval accounting.
	intervalStart sim.Time
	arrivedBytes  int64
	minQueueBytes int
	rttSum        sim.Time
	rttCount      int64
	meanRTT       sim.Time

	// perByte is the feedback (bytes of cwnd change per byte of packet)
	// computed for the current interval.
	perByte float64

	// Sliding-window arrival meter for the XCPw variant.
	arrMeter qdisc.RateMeter
}

// NewXCPRouter returns an XCP (or XCPw) router qdisc.
func NewXCPRouter(cfg XCPConfig) *XCPRouter {
	return &XCPRouter{
		Cfg:           cfg,
		Queue:         qdisc.Queue{Limit: cfg.Limit},
		meanRTT:       100 * sim.Millisecond,
		minQueueBytes: math.MaxInt,
		arrMeter:      qdisc.RateMeter{Window: xcpWindow},
	}
}

// Enqueue implements qdisc.Qdisc.
func (x *XCPRouter) Enqueue(now sim.Time, p *packet.Packet) bool {
	if !x.Admit(now, p, 0) {
		return false
	}
	if x.intervalStart == 0 {
		x.intervalStart = now
	}
	x.arrivedBytes += int64(p.Size)
	x.arrMeter.Add(now, int(p.Size))
	if p.XCP.Valid {
		if p.XCP.RTT > 0 {
			x.rttSum += p.XCP.RTT
			x.rttCount++
		}
	}
	x.minQueueBytes = min(x.minQueueBytes, x.Bytes())
	x.maybeCloseInterval(now)
	return true
}

// maybeCloseInterval runs the per-interval efficiency controller.
func (x *XCPRouter) maybeCloseInterval(now sim.Time) {
	if x.Cfg.PerPacket {
		return // XCPw computes continuously in feedbackFor
	}
	d := x.meanRTT
	if now-x.intervalStart < d {
		return
	}
	dur := (now - x.intervalStart).Seconds()
	y := float64(x.arrivedBytes) / dur // input rate, bytes/sec
	c := x.Mu(now) / 8                 // capacity, bytes/sec
	q := float64(x.minQueueBytes)
	if x.minQueueBytes == math.MaxInt {
		q = float64(x.Bytes())
	}
	phi := xcpAlpha*d.Seconds()*(c-y) - xcpBeta*q // bytes
	if x.arrivedBytes > 0 {
		x.perByte = phi / float64(x.arrivedBytes)
	} else if c > 0 {
		x.perByte = 1 // idle link: allow growth
	}
	if x.rttCount > 0 {
		x.meanRTT = sim.Time(int64(x.rttSum) / x.rttCount)
		if x.meanRTT < 10*sim.Millisecond {
			x.meanRTT = 10 * sim.Millisecond
		}
	}
	x.intervalStart = now
	x.arrivedBytes = 0
	x.rttSum, x.rttCount = 0, 0
	x.minQueueBytes = math.MaxInt
}

// feedbackFor returns the per-packet feedback in bytes for p.
func (x *XCPRouter) feedbackFor(now sim.Time, p *packet.Packet) float64 {
	if x.Cfg.PerPacket {
		// XCPw: instantaneous aggregate feedback over the sliding
		// window, apportioned by byte share of the window's traffic.
		d := x.meanRTT
		y := x.arrMeter.BytesPerSec(now)
		c := x.Mu(now) / 8
		phi := xcpAlpha*d.Seconds()*(c-y) - xcpBeta*float64(x.Bytes())
		winBytes := y * d.Seconds()
		if winBytes <= float64(p.Size) {
			winBytes = float64(p.Size)
		}
		if x.rttCount > 16 {
			x.meanRTT = sim.Time(int64(x.rttSum) / x.rttCount)
			if x.meanRTT < 10*sim.Millisecond {
				x.meanRTT = 10 * sim.Millisecond
			}
			x.rttSum, x.rttCount = 0, 0
		}
		return phi * float64(p.Size) / winBytes
	}
	return x.perByte * float64(p.Size)
}

// Dequeue implements qdisc.Qdisc.
func (x *XCPRouter) Dequeue(now sim.Time) *packet.Packet {
	p := x.Pop()
	if p == nil {
		return nil
	}
	x.minQueueBytes = min(x.minQueueBytes, x.Bytes())
	if p.XCP.Valid {
		fb := x.feedbackFor(now, p)
		if fb < p.XCP.Feedback {
			p.XCP.Feedback = fb
		}
	}
	return p
}

// XCPSender is the window-based XCP endpoint algorithm: it stamps the
// congestion header on data and applies the echoed feedback per ACK.
// Schemes XCP and XCPw both run it; only their routers differ.
type XCPSender struct {
	cwndBytes float64
}

// NewXCPSender returns an XCP sender.
func NewXCPSender() *XCPSender {
	s := new(XCPSender)
	s.Reset()
	return s
}

// Reset implements cc.Algorithm.
func (s *XCPSender) Reset() { *s = XCPSender{cwndBytes: 4 * packet.MTU} }

// StampData implements cc.DataStamper.
func (s *XCPSender) StampData(now sim.Time, e *cc.Endpoint, p *packet.Packet) {
	rtt := e.SRTT()
	if rtt == 0 {
		rtt = 100 * sim.Millisecond
	}
	p.XCP = packet.XCPHeader{
		CwndBytes: s.cwndBytes,
		RTT:       rtt,
		// Demand: request up to one extra packet per packet, i.e. at
		// most window doubling per RTT (mirrors ABC's dynamic range).
		Feedback: packet.MTU,
		Valid:    true,
	}
}

// OnAck implements cc.Algorithm.
func (s *XCPSender) OnAck(now sim.Time, e *cc.Endpoint, info cc.AckInfo) {
	if info.AckedBytes == 0 || !info.Ack.XCP.Valid {
		return
	}
	s.cwndBytes += info.Ack.XCP.Feedback
	if s.cwndBytes < packet.MTU {
		s.cwndBytes = packet.MTU
	}
}

// OnCongestion implements cc.Algorithm: XCP treats loss as severe.
func (s *XCPSender) OnCongestion(now sim.Time, e *cc.Endpoint) {
	s.cwndBytes /= 2
	if s.cwndBytes < packet.MTU {
		s.cwndBytes = packet.MTU
	}
}

// OnRTO implements cc.Algorithm.
func (s *XCPSender) OnRTO(now sim.Time, e *cc.Endpoint) {
	s.cwndBytes = packet.MTU
}

// CwndPkts implements cc.Algorithm.
func (s *XCPSender) CwndPkts() float64 { return s.cwndBytes / packet.MTU }
