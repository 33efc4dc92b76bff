// The one shell around every bottleneck link model.
package netem

import (
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// Port is what every bottleneck link is besides its service schedule: the
// discipline in front of the link, the element behind it, the flight-
// recorder hookup and the delivered-byte count. TraceLink, RateLink and
// wifi.Link embed it by value and keep only when they take from the queue
// and when they deliver; the methods below are the only code that offers a
// packet to a discipline, books its sojourn, or counts and forwards it,
// which is what makes offered = enqueued + refused, the packet-event
// counts and DeliveredBytes mean the same thing on every edge. It
// deliberately has no SetBackground, so embedding it never makes a link
// qdisc.BackgroundAware.
type Port struct {
	S   *sim.Simulator
	Q   qdisc.Qdisc
	Dst packet.Node

	// rec/obsSrc feed the flight recorder; nil rec = off.
	rec       *obs.Recorder
	obsSrc    int32
	delivered int64 // bytes
}

// SetObs implements obs.Sink: the port records its packet events under the
// given source id (the owning edge) and forwards the recorder to a
// discipline that is itself a sink (the ABC router's mark events).
func (pt *Port) SetObs(rec *obs.Recorder, src int32) {
	pt.rec, pt.obsSrc = rec, src
	if s, ok := pt.Q.(obs.Sink); ok {
		s.SetObs(rec, src)
	}
}

// DeliveredBytes reports the total bytes handed to Dst.
func (pt *Port) DeliveredBytes() int64 { return pt.delivered }

// Admit offers an arriving packet to the discipline and reports whether
// it was queued; a refused packet is dropped here, its last holder, as
// packet.Refused.
func (pt *Port) Admit(now sim.Time, p *packet.Packet) bool {
	if !pt.Q.Enqueue(now, p) {
		if pt.rec.Enabled(obs.CatPacket) {
			pt.rec.Emit(int64(now), obs.EvQdiscDrop, pt.obsSrc, int32(p.Flow), 0, 0)
		}
		p.Drop(packet.Refused)
		return false
	}
	if pt.rec.Enabled(obs.CatPacket) {
		pt.rec.Emit(int64(now), obs.EvEnqueue, pt.obsSrc, int32(p.Flow), int64(pt.Q.Len()), int64(pt.Q.Bytes()))
	}
	return true
}

// Depart ends a dequeued packet's stay at this hop: the link model calls
// it at the instant it books the sojourn (see each model's comment).
func (pt *Port) Depart(now sim.Time, p *packet.Packet) {
	p.QueueDelay += now - p.EnqueuedAt
	if pt.rec.Enabled(obs.CatPacket) {
		pt.rec.Emit(int64(now), obs.EvDequeue, pt.obsSrc, int32(p.Flow), int64(now-p.EnqueuedAt), int64(pt.Q.Len()))
	}
}

// Deliver counts a transmitted packet and hands it to Dst.
func (pt *Port) Deliver(p *packet.Packet) {
	pt.count(p)
	pt.Dst.Recv(p)
}

// count counts a transmitted packet: Deliver's, or a lazy rate link's
// as it hands the packet on itself (RateLink.hand).
func (pt *Port) count(p *packet.Packet) { pt.delivered += int64(p.Size) }

// hostPort is a Port whose link can host a fluid background aggregate:
// the trace and rate models embed it and charge bg's share in their
// service schedules; the Wi-Fi AP embeds the bare Port.
type hostPort struct {
	Port
	bg qdisc.Background
}

// SetBackground implements qdisc.BackgroundAware: the aggregate shares the
// link's service, and the discipline gets it too when that is background-
// aware (droptail's shared buffer, the ABC router's total-load accounting).
func (h *hostPort) SetBackground(bg qdisc.Background) {
	h.bg = bg
	if b, ok := h.Q.(qdisc.BackgroundAware); ok {
		b.SetBackground(bg)
	}
}
