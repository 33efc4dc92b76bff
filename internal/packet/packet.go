// Package packet defines the packet model shared by every simulated
// network element: senders, routers, links and receivers.
//
// The model mirrors what ABC (NSDI 2020) actually puts on the wire. In
// particular the ECN codepoint carries ABC's accelerate/brake signal using
// the paper's §5.1.2 reinterpretation of the two IP ECN bits, and a small
// number of extra fields model the multi-bit headers used by the explicit
// baselines (XCP, RCP) that the paper compares against.
//
// A flow's packets are booked on its Tally from birth to end, each end
// with its Cause, and an experiment run's flows draw their packets from
// the run's one Arena, which carves them from line-aligned slabs.
package packet

import (
	"fmt"

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
//
// The layout is part of the design: the fields are ordered so the struct
// is exactly two cache lines (128 bytes, pinned by TestPacketLayout), and
// the ones every hop reads or writes — Flow, Size, IsAck, ECN, the tally
// its end is booked on, and the timestamps the queues touch — are in the
// first. At 128 bytes Go's allocator places every packet at a line
// boundary, so those fields share one line.
type Packet struct {
	// Flow identifies the flow this packet belongs to.
	Flow int
	// Size is the wire size in bytes.
	Size int32

	// IsAck marks pure acknowledgements.
	IsAck bool
	// ECN is the IP ECN codepoint, carrying accel/brake for ABC flows.
	// On an ACK of an ABC flow it carries the *echoed* mark (NewAck copies
	// the data packet's accel/brake here), so reverse-path ABC routers and
	// marking qdiscs can demote the echo in flight exactly as forward-path
	// routers demote data marks — the sender then consumes the minimum of
	// marks over the full round trip, not just the forward chain.
	ECN ECN
	// Retx marks retransmissions (they do not update RTT estimates).
	Retx bool
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
	// VCPLoad is VCP's 2-bit load factor code (0 unset, 1 low, 2 high,
	// 3 overload). Routers only ever increase it along the path.
	VCPLoad uint8
	// ABCFlow tags packets of ABC flows so dual-queue routers (§5.2) can
	// classify them, modelling the IPv6 flow-label convention.
	ABCFlow bool
	// AppLimited marks packets from application-limited flows (used only
	// for reporting).
	AppLimited bool

	// SentAt is when the (data) packet left the sender.
	SentAt sim.Time
	// QueueDelay accumulates time spent in queues along the whole path.
	QueueDelay sim.Time
	// EnqueuedAt is set by the qdisc on enqueue at the current hop.
	EnqueuedAt sim.Time
	// tally, when set, counts this packet on its flow's books (see
	// Tally); NewAck passes it on and the packet's end books it there.
	tally *Tally

	// Seq is the data sequence number (in packets, not bytes). For an
	// ACK, Seq is the sequence of the data packet being acknowledged.
	Seq int64
	// CumAck is, on an ACK, the highest sequence such that every packet
	// below it has been received (cumulative acknowledgement).
	CumAck int64
	// AckSentAt is copied from SentAt into the ACK so the sender can
	// compute RTT samples without per-packet maps.
	AckSentAt sim.Time
	// AckQueueDelay echoes the data packet's accumulated queue delay.
	AckQueueDelay sim.Time

	// RCPRate is the bottleneck-stamped rate (bits/sec) for RCP flows;
	// routers take the minimum along the path. Zero means unset.
	RCPRate float64
	// XCP models the multi-bit congestion header used by XCP-family
	// protocols: the sender writes its cwnd and RTT estimates, routers
	// update Feedback, and the receiver echoes it back.
	XCP XCPHeader
}

// Cause is how a packet left the simulation: consumed at its terminal
// (Delivered, Acked — the two ends Release books), or dropped, and why.
// Every cause from Refused on is a drop.
type Cause uint8

const (
	// Delivered is a data packet its receiver consumed.
	Delivered Cause = iota
	// Acked is an ACK its sender consumed.
	Acked
	// Refused is a packet a discipline turned away at a link's port.
	Refused
	// AQM is a packet a discipline dropped after queueing it (CoDel's
	// dequeue side).
	AQM
	// Unrouted is a packet that reached a junction with no forwarding
	// entry for its flow and direction.
	Unrouted
	// LinkDown is a packet that arrived at an edge taken down.
	LinkDown
	// Adversary is a packet an attack stage discarded.
	Adversary
	// Impair is a packet an impairment stage (random or burst loss)
	// discarded.
	Impair
	// Late is an ACK that reached its sender after Stop.
	Late
	// Misrouted is a packet that reached a receiver or a sender that is
	// not its own.
	Misrouted
	// NumCauses counts the causes.
	NumCauses
)

var causeNames = [NumCauses]string{"delivered", "acked", "refused", "aqm", "unrouted", "link_down", "adversary", "impair", "late", "misrouted"}

// String returns the cause's stable name (the abc_drops_total label).
func (c Cause) String() string { return causeNames[c] }

// Books is what a set of packets did: how many data packets and ACKs
// were attached, and how many ended, by cause. It is one Tally's books,
// or any number of them summed.
type Books struct {
	Data, Acks int64
	Released   [NumCauses]int64
}

// Add adds o's counts to b.
func (b *Books) Add(o Books) {
	b.Data += o.Data
	b.Acks += o.Acks
	for c, n := range o.Released {
		b.Released[c] += n
	}
}

// Live is the attached packets that have not ended: the books' in-flight
// term, so attached = Σ released + Live holds by construction.
func (b Books) Live() int64 {
	n := b.Data + b.Acks
	for _, r := range b.Released {
		n -= r
	}
	return n
}

// Tally is one flow's packet books — every data packet its sender draws
// through it (NewData) and every ACK NewAck builds from one, and how
// each ended — and runs a callback once the flow is finished and none of
// its packets is live: the instant none is left anywhere (queued, on a
// wire, inside an impairment, in link service), so whatever only that
// flow used can be torn down without any later event reaching it. A
// tallied packet points at its tally. The zero Tally is empty and
// allocates its packets.
type Tally struct {
	books Books
	// arena, when set, is the run's packet arena: the flow's packets are
	// drawn from it and end into it. Without one they are allocated and
	// left to the collector.
	arena   *Arena
	onDrain func()
}

// UseArena readies the tally, before its first packet, for a run whose
// packets live in a (nil to allocate them).
func (t *Tally) UseArena(a *Arena) { t.arena = a }

// NewData returns a data packet of the flow, drawn from the tally's
// arena if it has one, and attached.
func (t *Tally) NewData(flow int, seq int64, size int, now sim.Time) *Packet {
	p := t.get()
	p.data(flow, seq, size, now)
	t.attach(p)
	return p
}

func (t *Tally) attach(p *Packet) {
	p.tally = t
	if p.IsAck {
		t.books.Acks++
	} else {
		t.books.Data++
	}
}

// Books returns the tally's books.
func (t *Tally) Books() Books { return t.books }

// Live reports how many of the flow's packets have not ended, under
// Books' rule.
func (t *Tally) Live() int { return int(t.books.Live()) }

// Finish, called once, declares that the flow will attach no more
// packets of its own. onDrain runs exactly once: now if no packet is
// live, otherwise from the end of the last one.
func (t *Tally) Finish(onDrain func()) {
	if t.Live() == 0 {
		onDrain()
		return
	}
	t.onDrain = onDrain
}

// get draws a zeroed packet: from the tally's arena, or a fresh one for
// a tally without one or no tally at all.
func (t *Tally) get() *Packet {
	if t == nil || t.arena == nil {
		return new(Packet)
	}
	return t.arena.get()
}

// release books one packet's end and drains a finished flow at zero.
func (t *Tally) release(c Cause) {
	t.books.Released[c]++
	if t.onDrain != nil && t.books.Live() == 0 {
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

// Arena is a run's store of packets: a LIFO free list of ended packets
// and the rest of a slab that fresh ones are carved from. The flows of a
// run draw their packets from it and end them into it (see
// Tally.UseArena); only the run's simulator touches it, so it needs no
// lock. The zero Arena is empty and ready.
type Arena struct {
	free []*Packet
	// slab is what is left of the current slab.
	slab []Packet
}

// slab is the block an arena carves fresh packets from: one 8 KiB
// allocation in which every packet starts on a line boundary. The
// allocator puts a header of mallocHeader bytes in front of an object
// that holds pointers and is larger than 512 bytes, and places an 8 KiB
// object at a page boundary; the pad fills the first line after the
// header. (A bare [64]Packet, with its header, would take the
// allocator's next size class, 9472 bytes, and every packet in it would
// straddle three lines.)
type slab struct {
	_       [cacheLine - mallocHeader]byte
	packets [slabPackets]Packet
}

const (
	// cacheLine is the line size the slab layout assumes.
	cacheLine = 64
	// mallocHeader is the size of the allocator's header (see slab).
	mallocHeader = 8
	// slabPackets is the packets one slab holds: 63 of two lines each
	// (TestPacketLayout), the pad and the header taking the 64th's place.
	slabPackets = (8192 - cacheLine) / (2 * cacheLine)
	// maxFree caps an arena's free list at four slabs' worth: after a
	// burst, the packets past the cap are left to the collector. The
	// list, with its header, is one 2 KiB object.
	maxFree = 4 * slabPackets
)

// get returns a zeroed packet: the last one put back, or the next of the
// slab, carving a new slab when that is used up.
func (a *Arena) get() *Packet {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		return p
	}
	if len(a.slab) == 0 {
		a.slab = new(slab).packets[:]
	}
	p := &a.slab[0]
	a.slab = a.slab[1:]
	return p
}

// put keeps zeroed p for the next get, unless the free list is full.
// The list is allocated whole at the first put, so it never moves and
// its lines are the arena's alone.
func (a *Arena) put(p *Packet) {
	if a.free == nil {
		a.free = make([]*Packet, 0, maxFree)
	}
	if len(a.free) < maxFree {
		a.free = append(a.free, p)
	}
}

// Get returns a fresh zeroed packet, held by no arena and on no tally.
//
// Ownership rules: a packet has exactly one owner at a time — whoever
// holds the pointer last is responsible for either forwarding it (links,
// qdiscs, wires) or ending it, exactly once, in one of two ways: Release
// by its terminal consumer (the receiver for data packets, the sender
// endpoint for ACKs), or Drop with the cause by whichever element drops
// it. Qdisc.Enqueue returning false leaves ownership with the caller and
// the packet untouched; a packet a discipline drops after accepting it
// (CoDel, from Dequeue) is dropped in exactly one place, qdisc.Queue's
// drop, which also counts it. A packet of a flow is drawn by its tally
// (Tally.NewData, NewAck) rather than from Get, under the same rules.
func Get() *Packet { return new(Packet) }

// Release ends p at its terminal consumer: it is Drop with the
// consumption cause, Delivered for a data packet and Acked for an ACK.
// Test sinks that retain packets simply skip it.
func (p *Packet) Release() {
	c := Delivered
	if p.IsAck {
		c = Acked
	}
	p.Drop(c)
}

// Drop ends p for cause c: it zeroes p, puts it back on its tally's
// arena if it has one, and books the end on p's tally, if any. The
// caller must not touch p afterwards: a packet no arena holds is left
// zeroed to the collector, so a use after its end reads an empty
// packet rather than a stale one. The end is booked last, so a drain
// callback it triggers runs with p already put back.
func (p *Packet) Drop(c Cause) {
	t := p.tally
	*p = Packet{}
	if t == nil {
		return
	}
	if t.arena != nil {
		t.arena.put(p)
	}
	t.release(c)
}

// NewData returns a fresh untallied data packet of the given flow,
// sequence and size.
func NewData(flow int, seq int64, size int, now sim.Time) *Packet {
	p := Get()
	p.data(flow, seq, size, now)
	return p
}

// data stamps zeroed p as a data packet.
func (p *Packet) data(flow int, seq int64, size int, now sim.Time) {
	p.Flow, p.Seq, p.Size, p.SentAt = flow, seq, int32(size), now
}

// NewAck builds the acknowledgement for data packet p, carrying the
// receiver's cumulative ack and echoing ABC/ECN signals. The ACK is drawn
// from the arena of p's tally if it has one, allocated otherwise, and
// attached to p's Tally, if any; p itself is left untouched (the
// caller still owns and eventually releases it).
func NewAck(p *Packet, cumAck int64, now sim.Time) *Packet {
	a := p.tally.get()
	a.IsAck = true
	if p.tally != nil {
		p.tally.attach(a)
	}
	a.Flow = p.Flow
	a.Seq = p.Seq
	a.CumAck = cumAck
	a.Size = AckSize
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
