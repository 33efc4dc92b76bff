package exp

import (
	"fmt"
	"math"
	"testing"

	"abc/internal/abc"
	"abc/internal/cc"
	"abc/internal/packet"
	"abc/internal/sim"
)

// scriptPipe is the network of resetScript: a 12 Mbit/s bottleneck that
// drops what would queue past 60 ms, a 20 ms path each way, and marks
// and drops chosen by the script rather than by a discipline.
type scriptPipe struct {
	s         *sim.Simulator
	ep        *cc.Endpoint
	variant   int64
	busyUntil sim.Time
	cum       int64
	pending   map[int64]bool
	dropped   bool
	// sample records the algorithm's state; the pipe calls it on every
	// data packet sent and every ACK processed.
	sample func()
}

const (
	scriptOneWay = 20 * sim.Millisecond
	scriptBps    = 12e6
	// The blackout drops every packet sent in it, long enough for the
	// retransmission timer to fire.
	scriptBlackoutFrom = 1200 * sim.Millisecond
	scriptBlackoutTo   = 1900 * sim.Millisecond
)

// Recv takes a data packet from the endpoint: it is dropped in the
// blackout, once at the scripted loss, or when the bottleneck queue is
// too long; otherwise it is marked for its phase and acknowledged.
func (sp *scriptPipe) Recv(p *packet.Packet) {
	sp.sample()
	now := sp.s.Now()
	lossSeq := 40 + 7*sp.variant
	if now >= scriptBlackoutFrom && now < scriptBlackoutTo || p.Seq == lossSeq && !sp.dropped {
		sp.dropped = sp.dropped || p.Seq == lossSeq
		p.Drop(packet.Impair)
		return
	}
	if sp.busyUntil < now {
		sp.busyUntil = now
	}
	if sp.busyUntil-now > 60*sim.Millisecond {
		p.Drop(packet.Refused)
		return
	}
	sp.busyUntil += sim.FromSeconds(float64(p.Size) * 8 / scriptBps)
	sp.mark(p)
	sp.s.After(sp.busyUntil-now+scriptOneWay, func() { sp.deliver(p) })
}

// mark writes the feedback of the packet's phase into every channel a
// scheme listens on: accelerate for 25 packets, then brake for 15
// (ABC's echo, XCP's feedback, RCP's rate, VCP's load), and CE on one
// packet.
func (sp *scriptPipe) mark(p *packet.Packet) {
	accel := (p.Seq+3*sp.variant)%40 < 25
	switch {
	case p.Seq == 90+11*sp.variant:
		p.ECN = packet.CE
	case accel:
		p.ECN = packet.Accel
	default:
		p.ECN = packet.Brake
	}
	if p.XCP.Valid {
		p.XCP.Feedback = packet.MTU / 2
		if !accel {
			p.XCP.Feedback = -packet.MTU
		}
	}
	p.RCPRate, p.VCPLoad = 9e6, 1
	if !accel {
		p.RCPRate, p.VCPLoad = 4e6, 3
	}
}

// deliver is the receiver: cumulative acknowledgement over the holes,
// and the ACK back over the return path.
func (sp *scriptPipe) deliver(p *packet.Packet) {
	if p.Seq == sp.cum {
		for sp.cum++; sp.pending[sp.cum]; sp.cum++ {
			delete(sp.pending, sp.cum)
		}
	} else if p.Seq > sp.cum {
		sp.pending[p.Seq] = true
	}
	ack := packet.NewAck(p, sp.cum, sp.s.Now())
	p.Release()
	sp.s.After(scriptOneWay, func() {
		sp.ep.Recv(ack)
		sp.sample()
	})
}

// resetScript drives alg for 3 simulated seconds as a backlogged flow
// on an endpoint over a scriptPipe, so it hears accelerates and brakes,
// a CE echo, a loss found by the dup-ACK rule and a retransmission
// timeout, and a paced scheme sends from its pacer. It returns the
// window, and a Pacer's rate, at every packet sent and ACK processed.
// variant shifts the marks and the loss, so two variants leave an
// algorithm in different states.
func resetScript(alg cc.Algorithm, variant int64) ([]float64, *cc.Endpoint) {
	s := sim.New(1)
	sp := &scriptPipe{s: s, variant: variant, pending: map[int64]bool{}}
	sp.ep = cc.NewEndpoint(s, 0, sp, alg)
	var trace []float64
	sp.sample = func() {
		trace = append(trace, alg.CwndPkts())
		if p, ok := alg.(cc.Pacer); ok {
			bps, use := p.PacingRate(s.Now())
			if !use {
				bps = -1
			}
			trace = append(trace, bps)
		}
	}
	sp.ep.Start()
	s.RunUntil(3 * sim.Second)
	sp.ep.Stop()
	return trace, sp.ep
}

// rtoCounter counts the timeouts its algorithm is told of.
type rtoCounter struct {
	cc.Algorithm
	rtos int
}

func (r *rtoCounter) OnRTO(now sim.Time, e *cc.Endpoint) {
	r.rtos++
	r.Algorithm.OnRTO(now, e)
}

// firstDifference returns the index of the first element in which a and
// b differ, or -1 if they are the same series.
func firstDifference(a, b []float64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestSchemesResetLikeNew: every registered scheme, and the greedy
// wrapper around it, comes out of Reset as its constructor builds it.
// One instance runs a script, is Reset and runs a second script; a fresh
// instance runs the same second script, and the two must agree on the
// window (and the pacing rate) at every step. Without the Reset, the
// second script must tell the two apart, or the first one left nothing
// for Reset to clear.
func TestSchemesResetLikeNew(t *testing.T) {
	probe := &rtoCounter{Algorithm: cc.NewCubic()}
	if _, ep := resetScript(probe, 0); probe.rtos == 0 || ep.CEEchoes == 0 || ep.LostPackets == 0 {
		t.Errorf("the script gives Cubic %d timeouts, %d CE echoes and %d losses; want each", probe.rtos, ep.CEEchoes, ep.LostPackets)
	}
	abcAlg, _ := cc.New("ABC")
	resetScript(abcAlg, 0)
	if s := abcAlg.(*abc.Sender); s.Accels == 0 || s.Brakes == 0 {
		t.Errorf("the script gives ABC %d accelerates and %d brakes; want both", s.Accels, s.Brakes)
	}
	bbr, _ := cc.New("BBR")
	if _, ep := resetScript(bbr, 0); ep.SentPackets == 0 {
		t.Error("the script's paced BBR flow sent nothing")
	}

	for _, name := range cc.SchemeNames() {
		for _, greedy := range []bool{false, true} {
			build := func() cc.Algorithm {
				alg, err := cc.New(name)
				if err != nil {
					t.Fatal(err)
				}
				if greedy {
					alg = cc.NewGreedy(alg)
				}
				return alg
			}
			label := name
			if greedy {
				label = fmt.Sprintf("greedy %s", name)
			}
			want, _ := resetScript(build(), 0)

			used := build()
			resetScript(used, 1)
			stale, _ := resetScript(used, 0)
			if firstDifference(stale, want) < 0 {
				t.Errorf("%s: an instance that ran a script runs the next like a fresh one without Reset; the script does not reach its state", label)
			}

			used = build()
			resetScript(used, 1)
			used.Reset()
			if got, _ := resetScript(used, 0); firstDifference(got, want) >= 0 {
				i := firstDifference(got, want)
				t.Errorf("%s: after Reset, step %d of %d reads %v, a fresh instance %v", label, i, len(want), stepOf(got, i), stepOf(want, i))
			}
		}
	}
}

// stepOf returns s[i], or NaN past its end.
func stepOf(s []float64, i int) float64 {
	if i < len(s) {
		return s[i]
	}
	return math.NaN()
}
