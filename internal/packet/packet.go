// Package packet defines the packet model shared by every simulated
// network element: senders, routers, links and receivers.
//
// The model mirrors what ABC (NSDI 2020) actually puts on the wire. In
// particular the ECN codepoint carries ABC's accelerate/brake signal using
// the paper's §5.1.2 reinterpretation of the two IP ECN bits, and a small
// number of extra fields model the multi-bit headers used by the explicit
// baselines (XCP, RCP) that the paper compares against.
package packet

import (
	"fmt"
	"sync"

	"abc/internal/sim"
)

// MTU is the packet size used throughout the evaluation, matching the
// paper's MTU-sized (1500 byte) packets and Mahimahi's delivery
// opportunities.
const MTU = 1500

// AckSize is the size of a pure acknowledgement.
const AckSize = 64

// ECN is the two-bit IP ECN codepoint. ABC reinterprets the two
// ECN-capable codepoints as accelerate and brake (paper §5.1.2):
//
//	ECT CE   standard meaning      ABC meaning
//	 0  0    Not-ECT               Not-ECT
//	 0  1    ECT(1)                Accelerate
//	 1  0    ECT(0)                Brake
//	 1  1    CE (congestion)       CE (congestion)
//
// Routers may flip Accel→Brake (never the reverse), and legacy ECN routers
// may flip either to CE; both transitions are representable here.
type ECN uint8

const (
	// NotECT marks a non-ECN-capable transport.
	NotECT ECN = iota
	// Accel is ECT(1): the ABC accelerate signal.
	Accel
	// Brake is ECT(0): the ABC brake signal.
	Brake
	// CE is the standard congestion-experienced mark set by legacy AQMs.
	CE
)

// String returns the codepoint name.
func (e ECN) String() string {
	switch e {
	case NotECT:
		return "NotECT"
	case Accel:
		return "Accel(ECT1)"
	case Brake:
		return "Brake(ECT0)"
	case CE:
		return "CE"
	}
	return fmt.Sprintf("ECN(%d)", uint8(e))
}

// ECNCapable reports whether a legacy ECN router may mark this packet CE
// instead of dropping it. Both ABC codepoints present as ECN-capable to
// legacy routers — that is the heart of the paper's deployment story.
func (e ECN) ECNCapable() bool { return e == Accel || e == Brake }

// Packet is a simulated packet. A single struct covers both data packets
// and acknowledgements; IsAck distinguishes them.
type Packet struct {
	// Flow identifies the flow this packet belongs to.
	Flow int
	// Seq is the data sequence number (in packets, not bytes). For an
	// ACK, Seq is the sequence of the data packet being acknowledged.
	Seq int64
	// CumAck is, on an ACK, the highest sequence such that every packet
	// below it has been received (cumulative acknowledgement).
	CumAck int64
	// Size is the wire size in bytes.
	Size int
	// IsAck marks pure acknowledgements.
	IsAck bool
	// Retx marks retransmissions (they do not update RTT estimates).
	Retx bool

	// ECN is the IP ECN codepoint, carrying accel/brake for ABC flows.
	// On an ACK of an ABC flow it carries the *echoed* mark (NewAck copies
	// the data packet's accel/brake here), so reverse-path ABC routers and
	// marking qdiscs can demote the echo in flight exactly as forward-path
	// routers demote data marks — the sender then consumes the minimum of
	// marks over the full round trip, not just the forward chain.
	ECN ECN
	// EchoAccel is set on ACKs when the receiver echoes an accelerate
	// (it echoes brake when false and EchoValid is set). This models the
	// TCP NS-bit echo described in §5.1.2. It records what the receiver
	// saw; ECN records what survived the reverse path.
	EchoAccel bool
	// EchoValid reports whether EchoAccel carries a valid accel/brake echo
	// (only ABC receivers set it).
	EchoValid bool
	// EchoCE is the standard ECN-Echo (ECE) flag: set on ACKs when the
	// corresponding data packet arrived marked CE.
	EchoCE bool

	// XCP models the multi-bit congestion header used by XCP-family
	// protocols: the sender writes its cwnd and RTT estimates, routers
	// update Feedback, and the receiver echoes it back.
	XCP XCPHeader
	// RCPRate is the bottleneck-stamped rate (bits/sec) for RCP flows;
	// routers take the minimum along the path. Zero means unset.
	RCPRate float64
	// VCPLoad is VCP's 2-bit load factor code (0 unset, 1 low, 2 high,
	// 3 overload). Routers only ever increase it along the path.
	VCPLoad uint8

	// ABCFlow tags packets of ABC flows so dual-queue routers (§5.2) can
	// classify them, modelling the IPv6 flow-label convention.
	ABCFlow bool

	// SentAt is when the (data) packet left the sender.
	SentAt sim.Time
	// EnqueuedAt is set by the qdisc on enqueue at the current hop.
	EnqueuedAt sim.Time
	// QueueDelay accumulates time spent in queues along the whole path.
	QueueDelay sim.Time
	// AckSentAt is copied from SentAt into the ACK so the sender can
	// compute RTT samples without per-packet maps.
	AckSentAt sim.Time
	// AckQueueDelay echoes the data packet's accumulated queue delay.
	AckQueueDelay sim.Time
	// AppLimited marks packets from application-limited flows (used only
	// for reporting).
	AppLimited bool

	// tally, when set, counts this packet among its flow's live packets
	// (see Tally); NewAck passes it on and Release gives it back.
	tally *Tally
}

// Tally counts one flow's live packets — every data packet its sender
// attaches and every ACK NewAck builds from one, each until it is
// released — and runs a callback once the flow is finished and the
// count is back at zero: the instant none of the flow's packets is left
// anywhere (queued, on a wire, inside an impairment, in link service),
// so whatever only that flow used can be torn down without any later
// event reaching it. Live is the flow's exact in-flight term.
//
// A Tally is a plain counter: every packet it counts must be created
// and released on one simulator goroutine. Workload-spawned flows, the
// only ones that carry one, are single-shard for that reason (exp's
// checkShardable); spawning flows across shards (ROADMAP item 6) must
// make it shard-safe first.
type Tally struct {
	live    int
	onDrain func()
}

// Attach counts p, which must not be counted yet, as one of the flow's
// live packets until p is released.
func (t *Tally) Attach(p *Packet) {
	p.tally = t
	t.live++
}

// Live reports how many of the flow's packets have not been released.
func (t *Tally) Live() int { return t.live }

// Finish, called once, declares that the flow will attach no more
// packets of its own. onDrain runs exactly once: now if no packet is
// live, otherwise from the Release of the last one.
func (t *Tally) Finish(onDrain func()) {
	if t.live == 0 {
		onDrain()
		return
	}
	t.onDrain = onDrain
}

// release uncounts one packet and drains a finished flow at zero.
func (t *Tally) release() {
	t.live--
	if t.live == 0 && t.onDrain != nil {
		drain := t.onDrain
		t.onDrain = nil
		drain()
	}
}

// XCPHeader is the congestion header carried by XCP/XCPw packets.
type XCPHeader struct {
	// CwndBytes is the sender's current congestion window in bytes.
	CwndBytes float64
	// RTT is the sender's current RTT estimate.
	RTT sim.Time
	// Feedback is the per-packet window adjustment in bytes, initialized
	// by the sender to its demand and decreased by routers.
	Feedback float64
	// Valid reports whether the header is in use.
	Valid bool
}

// pool recycles Packet structs across the whole process. Simulated flows
// churn through one data packet and one ACK per exchange; without
// recycling that is the dominant allocation in every experiment. The pool
// is safe for concurrent use, so parallel experiment cells share it.
var pool = sync.Pool{New: func() any { return new(Packet) }}

// Get returns a zeroed packet from the free list.
//
// Ownership rules: a packet has exactly one owner at a time — whoever
// holds the pointer last is responsible for either forwarding it (links,
// qdiscs, wires) or releasing it (terminal consumers: the receiver for
// data packets, the sender endpoint for ACKs, and whichever element drops
// it). Qdisc.Enqueue returning false leaves ownership with the caller and
// the packet untouched; a packet a discipline drops after accepting it
// (CoDel, from Dequeue) is released in exactly one place, qdisc.Queue's
// drop, which also counts it.
func Get() *Packet { return pool.Get().(*Packet) }

// Release zeroes p and returns it to the free list. The caller must not
// touch p afterwards. Test sinks that retain packets simply skip Release.
// A tallied packet is uncounted last, so a drain callback it triggers
// runs with p already back on the free list.
func (p *Packet) Release() {
	t := p.tally
	*p = Packet{}
	pool.Put(p)
	if t != nil {
		t.release()
	}
}

// NewData returns a data packet of the given flow, sequence and size,
// drawn from the free list.
func NewData(flow int, seq int64, size int, now sim.Time) *Packet {
	p := Get()
	p.Flow, p.Seq, p.Size, p.SentAt = flow, seq, size, now
	return p
}

// NewAck builds the acknowledgement for data packet p, carrying the
// receiver's cumulative ack and echoing ABC/ECN signals. The ACK is drawn
// from the free list and counted by p's Tally, if any; p itself is left
// untouched (the caller still owns and eventually releases it).
func NewAck(p *Packet, cumAck int64, now sim.Time) *Packet {
	a := Get()
	if p.tally != nil {
		p.tally.Attach(a)
	}
	a.Flow = p.Flow
	a.Seq = p.Seq
	a.CumAck = cumAck
	a.Size = AckSize
	a.IsAck = true
	a.Retx = p.Retx
	a.AckSentAt = p.SentAt
	a.AckQueueDelay = p.QueueDelay
	a.ABCFlow = p.ABCFlow
	a.AppLimited = p.AppLimited
	switch p.ECN {
	case Accel:
		a.EchoValid = true
		a.EchoAccel = true
		// The echo also rides the ACK's own codepoint so reverse-path
		// routers can demote it (Accel → Brake, or CE from a legacy AQM).
		a.ECN = Accel
	case Brake:
		a.EchoValid = true
		a.EchoAccel = false
		a.ECN = Brake
	case CE:
		a.EchoCE = true
	}
	if p.XCP.Valid {
		a.XCP = p.XCP
	}
	if p.RCPRate != 0 {
		a.RCPRate = p.RCPRate
	}
	a.VCPLoad = p.VCPLoad
	return a
}

// Node is anything that can receive a packet: links, wires, hosts, routers.
type Node interface {
	// Recv hands the packet to the node at the current simulation time.
	Recv(p *Packet)
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(p *Packet)

// Recv implements Node.
func (f NodeFunc) Recv(p *Packet) { f(p) }

// Sink is a Node that counts and then discards packets; useful as a
// default destination and in tests.
type Sink struct {
	Count int
	Bytes int64
	Last  *Packet
}

// Recv implements Node.
func (s *Sink) Recv(p *Packet) {
	s.Count++
	s.Bytes += int64(p.Size)
	s.Last = p
}
