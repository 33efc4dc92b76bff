// Receiver-side logic: cumulative acknowledgement tracking and echoing of
// ABC accel/brake marks and ECN signals back to the sender (§5.1.2).
package netem

import (
	"math/bits"

	"abc/internal/packet"
	"abc/internal/sim"
)

// Receiver terminates one flow: it acknowledges every data packet (the
// paper's per-packet feedback model), echoing the ABC mark or ECN CE as a
// modified TCP receiver would via the NS and ECE bits.
type Receiver struct {
	S    *sim.Simulator
	Flow int
	// Out carries ACKs back towards the sender.
	Out packet.Node
	// OnData, if set, observes every in-order-or-not data arrival
	// (metrics hooks). Its time is the arrival instant, which is ahead
	// of the clock when a wire folds the arrival (Wire.Carry); it is
	// never past the simulator's horizon.
	OnData DeliveryFunc

	// ret is Out when Out is a Wire, the direct lossless path its ACKs
	// return over: then a data wire in front of the receiver may fold
	// the ACK's return into the data's arrival (Wire.Carry).
	ret *Wire

	nextExpected int64
	// pending holds the out-of-order sequence numbers above nextExpected
	// as a ring of bits: sequence s is bit s mod 64·len(pending), and only
	// those in (nextExpected, nextExpected+64·len(pending)) can be set. It
	// is nil until the first packet arrives out of order (most flows never
	// reorder), doubles when one lands past its end, and keeps its storage
	// across Reset. It spans at most what the sender has outstanding: a
	// bit for each 16-byte slot of the sender's scoreboard.
	pending []uint64

	// Delivered counts data packets received (including retransmits).
	Delivered int64
}

// NewReceiver returns a receiver for the flow that sends ACKs to out.
func NewReceiver(s *sim.Simulator, flow int, out packet.Node) *Receiver {
	r := &Receiver{}
	r.Reset(s, flow, out)
	return r
}

// Reset readies r for flow as NewReceiver would, keeping OnData and the
// storage of its reorder set: how a receiver whose flow has ended
// carries the next one.
func (r *Receiver) Reset(s *sim.Simulator, flow int, out packet.Node) {
	clear(r.pending)
	ret, _ := out.(*Wire)
	*r = Receiver{S: s, Flow: flow, Out: out, OnData: r.OnData, ret: ret, pending: r.pending}
}

// Recv implements packet.Node for data packets.
func (r *Receiver) Recv(p *packet.Packet) {
	if ack := r.take(p, r.S.Now()); ack != nil {
		r.Out.Recv(ack)
		// The receiver is the data packet's terminal consumer: observers
		// and the ACK builder are done with it, so it goes back to the
		// free list.
		p.Release()
	}
}

// ahead takes p as arriving d from now and puts its ACK on the return
// wire's delay line for d plus the wire's delay, through the caller's
// handle l: the data's arrival and the ACK's return cost one event, the
// ACK's. It reports false, touching nothing, when the ACKs do not return
// over a wire or the arrival lies past the simulator's horizon; the
// caller then schedules the arrival itself.
func (r *Receiver) ahead(p *packet.Packet, d sim.Time, l *sim.Line) bool {
	at := r.S.Now() + d
	if r.ret == nil || at > r.S.Horizon() {
		return false
	}
	if ack := r.take(p, at); ack != nil {
		d += r.ret.Delay
		if !l.Is(r.S, d) {
			*l = r.S.Line(d)
		}
		l.AfterArgs(wireDeliver, r.ret, ack)
		p.Release()
	}
	return true
}

// take is a data packet's arrival at instant at: it is counted, observed
// and acknowledged, and its ACK returned. A misrouted packet is dropped
// and take returns nil.
func (r *Receiver) take(p *packet.Packet, at sim.Time) *packet.Packet {
	if p.IsAck || p.Flow != r.Flow {
		// Misrouted traffic still ends here: the receiver is the last
		// holder, so the ownership contract says it drops it.
		p.Drop(packet.Misrouted)
		return nil
	}
	r.Delivered++
	if r.OnData != nil {
		r.OnData(at, p)
	}
	// Advance the cumulative acknowledgement.
	if p.Seq == r.nextExpected {
		r.nextExpected++
		for r.unhold(r.nextExpected) {
			r.nextExpected++
		}
	} else if p.Seq > r.nextExpected {
		r.hold(p.Seq)
	}
	return packet.NewAck(p, r.nextExpected, at)
}

// hold adds seq > nextExpected to pending, doubling the ring until seq
// fits in it.
func (r *Receiver) hold(seq int64) {
	n := int64(len(r.pending)) * 64
	if seq-r.nextExpected >= n {
		m := max(n, 64)
		for seq-r.nextExpected >= m {
			m *= 2
		}
		old := r.pending
		r.pending = make([]uint64, m/64)
		for i, w := range old {
			for ; w != 0; w &= w - 1 {
				// The held sequence number s with s mod n = b.
				b := int64(i*64 + bits.TrailingZeros64(w))
				s := r.nextExpected + (b-r.nextExpected%n+n)%n
				r.pending[s%m/64] |= 1 << (s % 64)
			}
		}
		n = m
	}
	r.pending[seq%n/64] |= 1 << (seq % 64)
}

// unhold reports whether seq = nextExpected was held, and forgets it.
func (r *Receiver) unhold(seq int64) bool {
	if len(r.pending) == 0 {
		return false
	}
	w, bit := &r.pending[seq%(int64(len(r.pending))*64)/64], uint64(1)<<(seq%64)
	if *w&bit == 0 {
		return false
	}
	*w &^= bit
	return true
}

// CumAck returns the receiver's current cumulative acknowledgement point.
func (r *Receiver) CumAck() int64 { return r.nextExpected }
