// Receiver-side logic: cumulative acknowledgement tracking and echoing of
// ABC accel/brake marks and ECN signals back to the sender (§5.1.2).
package netem

import (
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
	// (metrics hooks).
	OnData DeliveryFunc

	nextExpected int64
	// pending holds out-of-order sequence numbers above nextExpected. It
	// is nil until the first packet arrives out of order: most flows never
	// reorder, and reading a nil map is fine.
	pending map[int64]bool

	// Delivered counts data packets received (including retransmits).
	Delivered int64
}

// NewReceiver returns a receiver for the flow that sends ACKs to out.
func NewReceiver(s *sim.Simulator, flow int, out packet.Node) *Receiver {
	return &Receiver{S: s, Flow: flow, Out: out}
}

// Reset readies r for flow as NewReceiver would, keeping OnData and the
// storage of its reorder set: how a receiver whose flow has ended
// carries the next one.
func (r *Receiver) Reset(s *sim.Simulator, flow int, out packet.Node) {
	clear(r.pending)
	*r = Receiver{S: s, Flow: flow, Out: out, OnData: r.OnData, pending: r.pending}
}

// Recv implements packet.Node for data packets.
func (r *Receiver) Recv(p *packet.Packet) {
	if p.IsAck || p.Flow != r.Flow {
		// Misrouted traffic still ends here: the receiver is the last
		// holder, so the ownership contract says it drops it.
		p.Drop(packet.Misrouted)
		return
	}
	now := r.S.Now()
	r.Delivered++
	if r.OnData != nil {
		r.OnData(now, p)
	}
	// Advance the cumulative acknowledgement.
	if p.Seq == r.nextExpected {
		r.nextExpected++
		for r.pending[r.nextExpected] {
			delete(r.pending, r.nextExpected)
			r.nextExpected++
		}
	} else if p.Seq > r.nextExpected {
		if r.pending == nil {
			r.pending = make(map[int64]bool)
		}
		r.pending[p.Seq] = true
	}
	ack := packet.NewAck(p, r.nextExpected, now)
	r.Out.Recv(ack)
	// The receiver is the data packet's terminal consumer: observers and
	// the ACK builder are done with it, so it goes back to the free list.
	p.Release()
}

// CumAck returns the receiver's current cumulative acknowledgement point.
func (r *Receiver) CumAck() int64 { return r.nextExpected }
