// Package obs is the observability substrate for the simulator: a
// fixed-capacity flight recorder of compact binary trace events and an
// atomically snapshottable metrics registry with Prometheus-style text
// exposition.
//
// obs deliberately depends on nothing but the standard library so that
// every layer of the simulator (sim, topo, netem, abc, cc, exp) can
// import it without cycles. Timestamps are raw int64 nanoseconds of
// virtual sim-time; callers convert from their own time types.
//
// The recorder is passive: emitting an event never schedules simulator
// work, never draws randomness, and never allocates in steady state, so
// enabling tracing cannot perturb a run (golden digests stay
// byte-identical with tracing on).
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Cat is a bitmask of event categories used to enable/disable tracing
// per subsystem without touching call sites.
type Cat uint32

const (
	// CatPacket covers queue-level packet life cycle: enqueue, dequeue,
	// and the various drop flavours.
	CatPacket Cat = 1 << iota
	// CatMark covers accel/brake mark issuance and demotion decisions
	// inside the ABC router.
	CatMark
	// CatRoute covers route-class attach/detach and reroutes.
	CatRoute
	// CatLink covers link up/down and delay/rate changes.
	CatLink
	// CatAttack covers adversary window open/close and per-packet
	// attack actions.
	CatAttack
	// CatCC covers congestion-control state updates (cwnd, pacing rate).
	CatCC
	// CatHop covers per-hop FIB forwarding. This is the hottest trace
	// point in the simulator; enable it only when you really want a
	// packet-level flight path.
	CatHop

	// CatAll enables every category.
	CatAll Cat = 1<<iota - 1
)

// Kind identifies what happened. Kinds are stable small integers so
// events stay compact in the ring and in columnar dumps.
type Kind uint16

const (
	// KindNone is the zero Kind; it never appears in a recorded event.
	KindNone Kind = iota

	// Packet life cycle (CatPacket). EvDequeue is emitted at the instant
	// the link model books the sojourn: a trace link at the delivery
	// opportunity, a rate link at transmission start, the Wi-Fi AP at the
	// block ACK — so there A includes the batch's airtime.
	EvEnqueue      // packet accepted by a qdisc. A=queue len after, B=queue bytes after
	EvDequeue      // packet's stay at the hop ended. A=sojourn ns, B=queue len after
	EvQdiscDrop    // qdisc refused the packet at enqueue (buffer full, or an enqueue-side AQM such as PIE)
	EvUnroutedDrop // node had no FIB entry for the flow
	EvDownDrop     // packet arrived at a downed link

	// Mark issuance (CatMark).
	EvAccel       // router issued an accelerate mark
	EvBrake       // router issued a brake mark
	EvEchoKept    // echoed accel on the reverse path kept
	EvEchoDemoted // echoed accel demoted to brake (accel->brake demotion)
	EvLiePromoted // lying router promoted a brake to accel

	// Routing (CatRoute).
	EvClassAttach // route class installed. Src=class id, A=refcount
	EvClassDetach // route class removed. Src=class id, A=refcount
	EvReroute     // flow moved to a new path. A=1 if draining (make-before-break)

	// Link state (CatLink).
	EvLinkUp
	EvLinkDown
	EvSetRate // A=new rate bits/sec

	// Adversary (CatAttack).
	EvAttackOn
	EvAttackOff
	EvAttackDrop
	EvAttackDelay // A=added delay ns
	EvAttackStrip // feedback stripped from packet

	// Congestion control (CatCC).
	EvCwnd // A=cwnd in 1/1024 pkts, B=pacing rate bits/sec (0 if none)

	// Forwarding (CatHop).
	EvHop // packet forwarded one hop. Src=node id, A=edge id

	// Appended after the kinds above so their numbers stay put.
	EvImpairDrop // edge's impairment stage (random or burst loss) discarded the packet (CatPacket). Src=edge id
	EvAQMDrop    // discipline dropped a packet it had queued (CoDel's dequeue side; CatPacket). Src=edge id

	kindCount // sentinel
)

// kindInfo maps a Kind to its wire name and category.
var kindInfo = [kindCount]struct {
	name string
	cat  Cat
}{
	KindNone:       {"none", 0},
	EvEnqueue:      {"enqueue", CatPacket},
	EvDequeue:      {"dequeue", CatPacket},
	EvQdiscDrop:    {"qdisc_drop", CatPacket},
	EvUnroutedDrop: {"unrouted_drop", CatPacket},
	EvDownDrop:     {"down_drop", CatPacket},
	EvAccel:        {"accel", CatMark},
	EvBrake:        {"brake", CatMark},
	EvEchoKept:     {"echo_kept", CatMark},
	EvEchoDemoted:  {"echo_demoted", CatMark},
	EvLiePromoted:  {"lie_promoted", CatMark},
	EvClassAttach:  {"class_attach", CatRoute},
	EvClassDetach:  {"class_detach", CatRoute},
	EvReroute:      {"reroute", CatRoute},
	EvLinkUp:       {"link_up", CatLink},
	EvLinkDown:     {"link_down", CatLink},
	EvSetRate:      {"set_rate", CatLink},
	EvAttackOn:     {"attack_on", CatAttack},
	EvAttackOff:    {"attack_off", CatAttack},
	EvAttackDrop:   {"attack_drop", CatAttack},
	EvAttackDelay:  {"attack_delay", CatAttack},
	EvAttackStrip:  {"attack_strip", CatAttack},
	EvCwnd:         {"cwnd", CatCC},
	EvHop:          {"hop", CatHop},
	EvImpairDrop:   {"impair_drop", CatPacket},
	EvAQMDrop:      {"aqm_drop", CatPacket},
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindInfo) && kindInfo[k].name != "" {
		return kindInfo[k].name
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// Category returns the category the kind belongs to.
func (k Kind) Category() Cat {
	if int(k) < len(kindInfo) {
		return kindInfo[k].cat
	}
	return 0
}

// Event is one flight-recorder entry: 32 bytes, no pointers.
// The meaning of Src, Flow, A and B depends on Kind; see the Kind
// constants. Src is a subsystem-local identity (edge index, node id,
// route class id), Flow is the flow id or -1.
type Event struct {
	T    int64 // virtual sim-time, nanoseconds
	A, B int64 // kind-specific payload
	Src  int32
	Flow int32
	Kind Kind
	_    [6]byte // pad to 32 bytes so the ring stays cache-line friendly
}

// Recorder is a fixed-capacity ring of Events guarded by a mutex so
// parallel sweep cells can share one instance under
// -race. A nil *Recorder is valid and permanently disabled, which is
// the zero-cost fast path: call sites guard emission with
// rec.Enabled(cat), which is a nil check plus one atomic load.
type Recorder struct {
	mask atomic.Uint32 // Cat bitmask of enabled categories

	mu    sync.Mutex
	ring  []Event
	total uint64 // events ever emitted; ring[total%cap] is the next slot
	// emitted counts the events ever emitted per kind, wraparound or not.
	emitted [kindCount]uint64
}

// NewRecorder returns a recorder holding the most recent capacity
// events for the categories in mask. capacity must be > 0.
func NewRecorder(capacity int, mask Cat) *Recorder {
	if capacity <= 0 {
		panic("obs: NewRecorder capacity must be > 0")
	}
	r := &Recorder{ring: make([]Event, capacity)}
	r.mask.Store(uint32(mask))
	return r
}

// Enabled reports whether events in category c would be recorded.
// Safe on a nil receiver; this is the per-call-site fast path.
func (r *Recorder) Enabled(c Cat) bool {
	return r != nil && Cat(r.mask.Load())&c != 0
}

// SetMask replaces the enabled-category bitmask.
func (r *Recorder) SetMask(mask Cat) { r.mask.Store(uint32(mask)) }

// Emit records one event. It allocates nothing and is safe for
// concurrent use. Callers are expected to have checked Enabled first;
// Emit re-checks the mask so racing SetMask calls stay consistent.
func (r *Recorder) Emit(t int64, k Kind, src, flow int32, a, b int64) {
	if r == nil || Cat(r.mask.Load())&k.Category() == 0 {
		return
	}
	r.mu.Lock()
	r.ring[r.total%uint64(len(r.ring))] = Event{T: t, A: a, B: b, Src: src, Flow: flow, Kind: k}
	r.total++
	r.emitted[k]++
	r.mu.Unlock()
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Total returns how many events have ever been emitted.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Emitted returns how many events of kind k have ever been emitted,
// including those the ring has since overwritten.
func (r *Recorder) Emitted(k Kind) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.emitted[k]
}

// Overwritten returns how many events have been lost to ring
// wraparound (total emitted minus capacity, floored at 0).
func (r *Recorder) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(len(r.ring)) {
		return 0
	}
	return r.total - uint64(len(r.ring))
}

// Snapshot copies the retained events oldest-first.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	capU := uint64(len(r.ring))
	if n > capU {
		out := make([]Event, capU)
		start := n % capU // oldest retained slot
		copied := copy(out, r.ring[start:])
		copy(out[copied:], r.ring[:start])
		return out
	}
	out := make([]Event, n)
	copy(out, r.ring[:n])
	return out
}

// WriteJSONL writes the retained events as one JSON object per line,
// oldest first, keyed by sim-time.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.Snapshot() {
		_, err := fmt.Fprintf(bw, `{"t":%d,"kind":%q,"src":%d,"flow":%d,"a":%d,"b":%d}`+"\n",
			e.T, e.Kind.String(), e.Src, e.Flow, e.A, e.B)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Sink is implemented by components that can carry a recorder plus a
// stable source id for the events they emit (edge index, router id).
// Wiring code uses it to thread one recorder through heterogeneous
// links and qdiscs without type switches at every site.
type Sink interface {
	SetObs(rec *Recorder, src int32)
}

// ParseMask parses a comma-separated category list ("packet,mark,hop",
// or "all") into a Cat bitmask.
func ParseMask(s string) (Cat, error) {
	if s == "" || s == "all" {
		return CatAll, nil
	}
	var m Cat
	start := 0
	for i := 0; i <= len(s); i++ {
		if i != len(s) && s[i] != ',' {
			continue
		}
		name := s[start:i]
		start = i + 1
		switch name {
		case "":
		case "packet":
			m |= CatPacket
		case "mark":
			m |= CatMark
		case "route":
			m |= CatRoute
		case "link":
			m |= CatLink
		case "attack":
			m |= CatAttack
		case "cc":
			m |= CatCC
		case "hop":
			m |= CatHop
		case "all":
			m = CatAll
		default:
			return 0, fmt.Errorf("obs: unknown trace category %q (want packet,mark,route,link,attack,cc,hop,all)", name)
		}
	}
	return m, nil
}
