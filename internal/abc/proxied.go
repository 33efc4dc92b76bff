// Proxied-network deployment (§5.1.2, "Deployment in Proxied Networks").
//
// Cellular networks commonly split TCP connections at an edge proxy, so
// no legacy router between the proxy and the base station uses ECN. In
// that setting ABC needs no receiver modifications at all: the sender
// (proxy) marks accelerates with an ECN-capable codepoint, the router
// signals a brake by flipping the codepoint to CE (11), and an
// *unmodified* receiver echoes the CE through the standard ECE flag.
//
// This file implements that encoding as an alternative to the NS-bit
// scheme in sender.go/router.go, letting experiments and tests verify the
// two deployments behave identically on proxied paths.
package abc

import (
	"abc/internal/cc"
	"abc/internal/packet"
	"abc/internal/sim"
)

// ProxiedMarker converts a router's brake decision into the proxied
// encoding: accelerate stays ECT, brake becomes CE. It wraps a Router and
// rewrites its output marks; the wrapped router still runs Algorithm 1
// unchanged.
type ProxiedMarker struct {
	*Router
}

// NewProxiedRouter returns an ABC router using the proxied-network
// encoding (brake = CE).
func NewProxiedRouter(cfg RouterConfig) *ProxiedMarker {
	return &ProxiedMarker{Router: NewRouter(cfg)}
}

// Dequeue implements qdisc.Qdisc, translating Brake to CE on the wire.
func (m *ProxiedMarker) Dequeue(now sim.Time) *packet.Packet {
	p := m.Router.Dequeue(now)
	if p == nil {
		return nil
	}
	if p.ECN == packet.Brake {
		// In the proxied deployment the brake signal rides the CE
		// codepoint, which any unmodified receiver echoes via ECE.
		p.ECN = packet.CE
	}
	return p
}

// ProxiedSender is the ABC sender for proxied deployments: accelerates
// are inferred from ACKs whose ECE flag is clear, brakes from ECE-marked
// ACKs. It carries the same dual-window machinery as Sender.
type ProxiedSender struct {
	inner *Sender
}

// NewProxiedSender returns a proxied-mode ABC sender.
func NewProxiedSender() *ProxiedSender {
	p := &ProxiedSender{inner: new(Sender)}
	p.Reset()
	return p
}

// Reset implements cc.Algorithm.
func (p *ProxiedSender) Reset() { p.inner.Reset() }

// WABC exposes the accel-brake window.
func (p *ProxiedSender) WABC() float64 { return p.inner.WABC() }

// Accels and Brakes expose feedback counts for tests.
func (p *ProxiedSender) Accels() int64 { return p.inner.Accels }

// Brakes returns the number of brake signals received.
func (p *ProxiedSender) Brakes() int64 { return p.inner.Brakes }

// StampData implements cc.DataStamper: in the proxied encoding every data
// packet leaves with an ECN-capable codepoint meaning accelerate.
func (p *ProxiedSender) StampData(now sim.Time, e *cc.Endpoint, pkt *packet.Packet) {
	pkt.ECN = packet.Accel
	pkt.ABCFlow = true
}

// OnAck implements cc.Algorithm: an unmodified receiver echoes CE as ECE,
// which this sender interprets as a brake; everything else echoed from an
// ECT codepoint is an accelerate.
func (p *ProxiedSender) OnAck(now sim.Time, e *cc.Endpoint, info cc.AckInfo) {
	// Rewrite the ACK into the NS-bit form the inner sender expects.
	rewritten := *info.Ack
	if info.Ack.EchoCE {
		rewritten.EchoValid = true
		rewritten.EchoAccel = false
		rewritten.EchoCE = false
	} else if info.Ack.EchoValid {
		// ECT codepoint survived: accelerate.
		rewritten.EchoAccel = true
	}
	innerInfo := info
	innerInfo.Ack = &rewritten
	p.inner.OnAck(now, e, innerInfo)
}

// HandlesCE implements cc.CEHandler: in proxied mode CE means brake, not
// legacy congestion, so the endpoint must not treat ECE as a loss signal.
func (p *ProxiedSender) HandlesCE() bool { return true }

// OnCongestion implements cc.Algorithm; only packet loss reaches it.
func (p *ProxiedSender) OnCongestion(now sim.Time, e *cc.Endpoint) {
	p.inner.OnCongestion(now, e)
}

// OnRTO implements cc.Algorithm.
func (p *ProxiedSender) OnRTO(now sim.Time, e *cc.Endpoint) { p.inner.OnRTO(now, e) }

// CwndPkts implements cc.Algorithm.
func (p *ProxiedSender) CwndPkts() float64 { return p.inner.CwndPkts() }
