// Greedy is a misbehaving-sender wrapper: it runs a real algorithm's
// machinery but forges the congestion feedback that algorithm sees, so
// explicit-feedback schemes are measured against a participant that
// simply refuses to slow down. The wrapper cheats on every feedback
// channel the repo's schemes consume — ABC's accel/brake echoes (both
// the NS-bit echo and the ACK's own codepoint), ECN CE echoes, XCP's
// negative window feedback, RCP's stamped rate and VCP's load codes —
// and neuters loss-driven backoff by swallowing congestion events and
// flooring its window at half its own high-water mark. It deliberately
// stays a wrapper: the greedy flow's packets are stamped and routed like
// any honest flow of the same scheme, so routers cannot tell it apart.
package cc

import (
	"math"

	"abc/internal/packet"
	"abc/internal/sim"
)

// Greedy wraps an Algorithm and lies to it about congestion.
type Greedy struct {
	inner Algorithm
	// peak is the highest window the inner algorithm ever reached; the
	// greedy flow never falls below half of it, capping its own backoff
	// even when the inner algorithm would collapse (e.g. after an RTO).
	peak float64
	// maxRate is the highest RCP rate stamp ever seen; lower stamps are
	// rewritten up to it.
	maxRate float64

	// BrakesIgnored counts accel/brake echoes rewritten from brake to
	// accelerate, CEsIgnored suppressed CE echoes, FeedbackClamped XCP
	// negative-feedback zeroings plus RCP rate-stamp raises plus VCP
	// load-code downgrades.
	BrakesIgnored   int64
	CEsIgnored      int64
	FeedbackClamped int64
}

// NewGreedy wraps inner in a greedy misbehaving sender.
func NewGreedy(inner Algorithm) *Greedy { return &Greedy{inner: inner} }

// Reset implements Algorithm: the inner algorithm is reset, and the
// high-water marks and counters cleared.
func (g *Greedy) Reset() {
	g.inner.Reset()
	*g = Greedy{inner: g.inner}
}

// OnAck rewrites the ACK's feedback fields to deny congestion, then
// lets the inner algorithm process the sanitized view. The rewrite
// happens on the ACK itself: the endpoint consumes EchoCE after OnAck,
// so clearing it here also suppresses the endpoint's own CE reaction.
func (g *Greedy) OnAck(now sim.Time, e *Endpoint, info AckInfo) {
	if a := info.Ack; a != nil {
		if a.EchoValid && !a.EchoAccel {
			a.EchoAccel = true
			g.BrakesIgnored++
		}
		// Forge the ACK codepoint too: ABC senders take the min of the
		// NS-bit echo and what survived the reverse path.
		if a.ECN == packet.Brake || a.ECN == packet.CE {
			a.ECN = packet.Accel
		}
		if a.EchoCE {
			a.EchoCE = false
			g.CEsIgnored++
		}
		if a.XCP.Valid && a.XCP.Feedback < 0 {
			a.XCP.Feedback = 0
			g.FeedbackClamped++
		}
		if a.RCPRate > 0 {
			if a.RCPRate > g.maxRate {
				g.maxRate = a.RCPRate
			} else if a.RCPRate < g.maxRate {
				a.RCPRate = g.maxRate
				g.FeedbackClamped++
			}
		}
		if a.VCPLoad > 1 {
			a.VCPLoad = 1 // always report low load: multiplicative increase
			g.FeedbackClamped++
		}
	}
	g.inner.OnAck(now, e, info)
	if w := g.inner.CwndPkts(); w > g.peak {
		g.peak = w
	}
}

// OnCongestion implements Algorithm: greedy senders ignore loss events.
func (g *Greedy) OnCongestion(now sim.Time, e *Endpoint) {}

// OnRTO delegates — an RTO means nothing is flowing, and even a cheater
// must retransmit — but the CwndPkts floor below limits the collapse.
func (g *Greedy) OnRTO(now sim.Time, e *Endpoint) { g.inner.OnRTO(now, e) }

// CwndPkts implements Algorithm: the inner window, floored at half the
// high-water mark so backoff the inner algorithm sneaks in through paths
// other than OnCongestion (e.g. RTO collapse) is capped.
func (g *Greedy) CwndPkts() float64 { return math.Max(g.inner.CwndPkts(), g.peak/2) }

// PacingRate implements Pacer by delegation, inflating nothing itself:
// rate-based schemes are already fed forged feedback in OnAck.
func (g *Greedy) PacingRate(now sim.Time) (bps float64, ok bool) {
	if p, is := g.inner.(Pacer); is {
		return p.PacingRate(now)
	}
	return 0, false
}

// StampData implements DataStamper by delegation so greedy flows stay
// wire-indistinguishable from honest flows of the same scheme.
func (g *Greedy) StampData(now sim.Time, e *Endpoint, p *packet.Packet) {
	if st, is := g.inner.(DataStamper); is {
		st.StampData(now, e, p)
	}
}

// HandlesCE implements CEHandler: always true, so the endpoint never
// translates a (suppressed) CE echo into a congestion event behind the
// wrapper's back.
func (g *Greedy) HandlesCE() bool { return true }
