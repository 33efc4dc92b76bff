package cc

import (
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
)

// fakeAlg records the feedback it is shown.
type fakeAlg struct {
	cwnd        float64
	sawAccel    []bool
	sawCE       []bool
	sawXCP      []float64
	sawRCP      []float64
	sawVCP      []uint8
	congestions int
}

func (f *fakeAlg) OnAck(now sim.Time, e *Endpoint, info AckInfo) {
	a := info.Ack
	f.sawAccel = append(f.sawAccel, a.EchoAccel)
	f.sawCE = append(f.sawCE, a.EchoCE)
	f.sawXCP = append(f.sawXCP, a.XCP.Feedback)
	f.sawRCP = append(f.sawRCP, a.RCPRate)
	f.sawVCP = append(f.sawVCP, a.VCPLoad)
}
func (f *fakeAlg) OnCongestion(now sim.Time, e *Endpoint) { f.congestions++ }
func (f *fakeAlg) OnRTO(now sim.Time, e *Endpoint)        {}
func (f *fakeAlg) CwndPkts() float64                      { return f.cwnd }
func (f *fakeAlg) Reset()                                 { *f = fakeAlg{cwnd: f.cwnd} }

// TestGreedyForgesFeedback: every feedback channel a scheme could hear
// congestion through reaches the inner algorithm scrubbed clean.
func TestGreedyForgesFeedback(t *testing.T) {
	inner := &fakeAlg{cwnd: 4}
	g := NewGreedy(inner)

	ack := packet.Get()
	ack.IsAck = true
	ack.EchoValid = true
	ack.EchoAccel = false // brake echo
	ack.ECN = packet.Brake
	ack.EchoCE = true
	ack.XCP = packet.XCPHeader{Valid: true, Feedback: -5000}
	ack.RCPRate = 8e6
	ack.VCPLoad = 3 // overload

	g.OnAck(0, nil, AckInfo{Ack: ack})
	if !inner.sawAccel[0] {
		t.Error("inner saw a brake echo")
	}
	if inner.sawCE[0] {
		t.Error("inner saw a CE echo")
	}
	if ack.ECN != packet.Accel {
		t.Errorf("ACK codepoint = %d, want forged Accel", ack.ECN)
	}
	if inner.sawXCP[0] != 0 {
		t.Errorf("inner saw XCP feedback %g, want clamped 0", inner.sawXCP[0])
	}
	if inner.sawVCP[0] != 1 {
		t.Errorf("inner saw VCP load %d, want downgraded 1", inner.sawVCP[0])
	}
	if g.BrakesIgnored != 1 || g.CEsIgnored != 1 || g.FeedbackClamped != 2 {
		t.Errorf("counters = %d/%d/%d, want 1/1/2",
			g.BrakesIgnored, g.CEsIgnored, g.FeedbackClamped)
	}

	// A second ACK stamped with a lower RCP rate is rewritten up to the
	// high-water mark.
	ack2 := packet.Get()
	ack2.IsAck = true
	ack2.RCPRate = 2e6
	g.OnAck(0, nil, AckInfo{Ack: ack2})
	if inner.sawRCP[1] != 8e6 {
		t.Errorf("inner saw RCP rate %g, want held at 8e6", inner.sawRCP[1])
	}
	ack.Release()
	ack2.Release()
}

// TestGreedyIgnoresCongestionAndFloorsWindow: loss events never reach
// the inner algorithm, and the window never drops below half its peak.
func TestGreedyIgnoresCongestionAndFloorsWindow(t *testing.T) {
	inner := &fakeAlg{cwnd: 40}
	g := NewGreedy(inner)
	ack := packet.Get()
	ack.IsAck = true
	g.OnAck(0, nil, AckInfo{Ack: ack}) // records peak 40
	ack.Release()

	g.OnCongestion(0, nil)
	if inner.congestions != 0 {
		t.Error("congestion event reached inner algorithm")
	}
	inner.cwnd = 1 // inner collapsed (e.g. RTO path)
	if w := g.CwndPkts(); w != 20 {
		t.Errorf("CwndPkts = %g, want floor 20 (half of peak 40)", w)
	}
	if !g.HandlesCE() {
		t.Error("greedy must claim CE handling to suppress endpoint backoff")
	}
}
