package packet

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"abc/internal/sim"
)

func TestECNCapable(t *testing.T) {
	cases := []struct {
		e    ECN
		want bool
	}{
		{NotECT, false},
		{Accel, true},
		{Brake, true},
		{CE, false},
	}
	for _, c := range cases {
		if got := c.e.ECNCapable(); got != c.want {
			t.Errorf("%v.ECNCapable() = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestECNString(t *testing.T) {
	for e, want := range map[ECN]string{
		NotECT: "NotECT",
		Accel:  "Accel(ECT1)",
		Brake:  "Brake(ECT0)",
		CE:     "CE",
	} {
		if got := e.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", e, got, want)
		}
	}
	if got := ECN(9).String(); got != "ECN(9)" {
		t.Errorf("unknown codepoint String = %q", got)
	}
}

func TestNewDataFields(t *testing.T) {
	p := NewData(3, 17, MTU, 5*sim.Millisecond)
	if p.Flow != 3 || p.Seq != 17 || p.Size != MTU || p.SentAt != 5*sim.Millisecond {
		t.Errorf("NewData fields wrong: %+v", p)
	}
	if p.IsAck {
		t.Error("data packet marked as ACK")
	}
}

// TestAckEchoesMarks verifies the §5.1.2 echo rules: accel → NS-style
// accel echo, brake → brake echo, CE → ECE.
func TestAckEchoesMarks(t *testing.T) {
	mk := func(e ECN) *Packet {
		p := NewData(1, 2, MTU, 0)
		p.ECN = e
		return p
	}
	a := NewAck(mk(Accel), 3, sim.Millisecond)
	if !a.EchoValid || !a.EchoAccel {
		t.Errorf("accel echo wrong: %+v", a)
	}
	b := NewAck(mk(Brake), 3, sim.Millisecond)
	if !b.EchoValid || b.EchoAccel {
		t.Errorf("brake echo wrong: %+v", b)
	}
	c := NewAck(mk(CE), 3, sim.Millisecond)
	if c.EchoValid || !c.EchoCE {
		t.Errorf("CE echo wrong: %+v", c)
	}
	n := NewAck(mk(NotECT), 3, sim.Millisecond)
	if n.EchoValid || n.EchoCE {
		t.Errorf("NotECT echo wrong: %+v", n)
	}
}

func TestAckCarriesTimestampsAndHeaders(t *testing.T) {
	p := NewData(1, 9, MTU, 7*sim.Millisecond)
	p.QueueDelay = 4 * sim.Millisecond
	p.XCP = XCPHeader{CwndBytes: 30000, RTT: 100 * sim.Millisecond, Feedback: 1500, Valid: true}
	p.RCPRate = 5e6
	p.VCPLoad = 2
	p.ABCFlow = true

	a := NewAck(p, 10, 20*sim.Millisecond)
	if !a.IsAck || a.Seq != 9 || a.CumAck != 10 {
		t.Errorf("ack identity wrong: %+v", a)
	}
	if a.AckSentAt != 7*sim.Millisecond {
		t.Errorf("AckSentAt = %v", a.AckSentAt)
	}
	if a.AckQueueDelay != 4*sim.Millisecond {
		t.Errorf("AckQueueDelay = %v", a.AckQueueDelay)
	}
	if !a.XCP.Valid || a.XCP.Feedback != 1500 {
		t.Errorf("XCP header not echoed: %+v", a.XCP)
	}
	if a.RCPRate != 5e6 || a.VCPLoad != 2 || !a.ABCFlow {
		t.Errorf("explicit fields not echoed: %+v", a)
	}
	if a.Size != AckSize {
		t.Errorf("ack size = %d", a.Size)
	}
}

// TestAckEchoProperty: for any ECN codepoint, the echo is lossless — the
// receiver can always distinguish accel, brake and CE.
func TestAckEchoProperty(t *testing.T) {
	f := func(raw uint8) bool {
		e := ECN(raw % 4)
		p := NewData(1, 1, MTU, 0)
		p.ECN = e
		a := NewAck(p, 2, 0)
		switch e {
		case Accel:
			return a.EchoValid && a.EchoAccel && !a.EchoCE
		case Brake:
			return a.EchoValid && !a.EchoAccel && !a.EchoCE
		case CE:
			return !a.EchoValid && a.EchoCE
		default:
			return !a.EchoValid && !a.EchoCE
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSinkCounts(t *testing.T) {
	s := &Sink{}
	s.Recv(NewData(1, 0, 100, 0))
	s.Recv(NewData(1, 1, 200, 0))
	if s.Count != 2 || s.Bytes != 300 {
		t.Errorf("sink = %+v", s)
	}
	if s.Last == nil || s.Last.Seq != 1 {
		t.Error("Last not tracked")
	}
}

func TestNodeFunc(t *testing.T) {
	n := 0
	var f NodeFunc = func(p *Packet) { n += int(p.Size) }
	f.Recv(NewData(1, 0, 50, 0))
	if n != 50 {
		t.Errorf("NodeFunc not invoked: %d", n)
	}
}

func TestRetxAckSuppressesRTTSample(t *testing.T) {
	p := NewData(1, 5, MTU, 3*sim.Millisecond)
	p.Retx = true
	a := NewAck(p, 6, 9*sim.Millisecond)
	if !a.Retx {
		t.Error("ack of retransmission must carry Retx")
	}
}

func TestPoolRecyclesZeroed(t *testing.T) {
	p := NewData(3, 42, MTU, 7)
	p.ECN = Accel
	p.QueueDelay = 5
	p.Release()
	q := Get()
	// q may or may not be the same object (sync.Pool), but it must be
	// zeroed either way.
	if *q != (Packet{}) {
		t.Errorf("Get returned a dirty packet: %+v", q)
	}
	q.Release()
}

// TestTallyDrainsOnce: a tallied data packet and the ACK built from it
// are both counted until released; the drain callback runs only after
// Finish and at zero, exactly once, and untallied packets never touch a
// tally.
func TestTallyDrainsOnce(t *testing.T) {
	var tl Tally
	drains := 0
	d1, d2 := NewData(1, 0, MTU, 0), NewData(1, 1, MTU, 0)
	tl.Attach(d1)
	tl.Attach(d2)
	a1 := NewAck(d1, 1, 0)
	if tl.Live() != 3 {
		t.Fatalf("live = %d after two data packets and one ACK, want 3", tl.Live())
	}
	stray := NewData(2, 0, MTU, 0)
	strayAck := NewAck(stray, 1, 0)
	stray.Release()
	strayAck.Release()
	d1.Release()
	d2.Release()
	if tl.Live() != 1 {
		t.Fatalf("live = %d, want 1 (untallied releases must not count)", tl.Live())
	}
	tl.Finish(func() { drains++ })
	if drains != 0 {
		t.Fatal("drained at Finish with an ACK still live")
	}
	a1.Release()
	if drains != 1 || tl.Live() != 0 {
		t.Fatalf("drains = %d, live = %d after the last release; want 1, 0", drains, tl.Live())
	}
	// Nothing brings it back, not even one more counted packet.
	late := NewData(1, 2, MTU, 0)
	tl.Attach(late)
	late.Release()
	if drains != 1 {
		t.Fatalf("drained %d times, want exactly once", drains)
	}

	// Finishing an already idle flow drains on the spot.
	var idle Tally
	idle.Finish(func() { drains++ })
	if drains != 2 {
		t.Fatal("Finish at zero did not drain immediately")
	}
	// Untallied packets stay untallied, through ACKs and the free list.
	p := NewData(3, 0, MTU, 0)
	if a := NewAck(p, 1, 0); a.tally != nil {
		t.Error("ACK of an untallied packet carries a tally")
	}
	p.Release()
}

// TestTallyRowsPerShard: a spread tally books an attach on the sender's
// shard and each end on the shard the packet was moved to, so no row
// balances alone while their sum does; Adopt leaves a tallied packet on
// its own books, and every end names its cause.
func TestTallyRowsPerShard(t *testing.T) {
	var tl, strays Tally
	tl.Spread(3, 1)
	strays.Spread(3, 0)
	d := NewData(1, 0, MTU, 0)
	tl.Attach(d)
	strays.Adopt(d, 2)
	d.MoveTo(2)
	a := NewAck(d, 1, 0)
	d.Release()
	a.MoveTo(0)
	a.Drop(Late)
	if got := tl.Books(); got.Data != 1 || got.Acks != 1 || got.Released[Delivered] != 1 || got.Released[Late] != 1 || got.Live() != 0 {
		t.Fatalf("books = %+v, want one data packet delivered and one ACK ended late", got)
	}
	if r := tl.spread.rows; r[0].Live() != -1 || r[1].Live() != 1 || r[2].Live() != 0 {
		t.Fatalf("rows %+v %+v %+v: want the ACK's end on shard 0, the data attach on shard 1, the ACK's attach and the data end on shard 2",
			r[0].Books, r[1].Books, r[2].Books)
	}
	if b := strays.Books(); b != (Books{}) {
		t.Fatalf("Adopt booked a packet its flow already tallies: %+v", b)
	}
}

func TestNewAckLeavesDataPacketIntact(t *testing.T) {
	p := NewData(1, 9, MTU, 100)
	p.ECN = Brake
	p.QueueDelay = 11
	a := NewAck(p, 10, 200)
	if a == p {
		t.Fatal("ACK aliases the data packet")
	}
	if p.ECN != Brake || p.Seq != 9 || p.QueueDelay != 11 {
		t.Errorf("data packet mutated by NewAck: %+v", p)
	}
	if !a.IsAck || a.Size != AckSize || a.AckSentAt != 100 || a.AckQueueDelay != 11 {
		t.Errorf("ack fields wrong: %+v", a)
	}
	if !a.EchoValid || a.EchoAccel {
		t.Errorf("brake echo wrong: %+v", a)
	}
	p.Release()
	a.Release()
}

// TestPacketLayout: a packet is exactly two cache lines and a fresh one
// starts on a line boundary, so a packet handed from one shard's core to
// another shares no line with a packet either core is still working on.
func TestPacketLayout(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 2*cacheLine {
		t.Fatalf("sizeof(Packet) = %d, want %d", size, 2*cacheLine)
	}
	hot := []struct {
		name   string
		offset uintptr
	}{
		{"Flow", unsafe.Offsetof(Packet{}.Flow)}, {"Size", unsafe.Offsetof(Packet{}.Size)},
		{"IsAck", unsafe.Offsetof(Packet{}.IsAck)}, {"ECN", unsafe.Offsetof(Packet{}.ECN)},
		{"shard", unsafe.Offsetof(Packet{}.shard)}, {"SentAt", unsafe.Offsetof(Packet{}.SentAt)},
		{"QueueDelay", unsafe.Offsetof(Packet{}.QueueDelay)}, {"tally", unsafe.Offsetof(Packet{}.tally)},
	}
	for _, f := range hot {
		if f.offset >= cacheLine {
			t.Errorf("Packet.%s at offset %d, want it in the first %d-byte line", f.name, f.offset, cacheLine)
		}
	}
	// Fresh allocations, not recycled ones: the pool may hand back any
	// packet, but every packet it holds was once allocated by its New.
	for i := 0; i < 64; i++ {
		if at := uintptr(unsafe.Pointer(pool.New().(*Packet))); at%cacheLine != 0 {
			t.Fatalf("packet allocated at %#x, not on a %d-byte line boundary", at, cacheLine)
		}
	}
	p := Get()
	defer p.Release()
	if at := uintptr(unsafe.Pointer(p)); at%cacheLine != 0 {
		t.Fatalf("Get returned a packet at %#x, not on a %d-byte line boundary", at, cacheLine)
	}
}

// TestSpreadTallyOwnsItsLines: a tally spread over two shards books each
// shard's packets on lines that hold nothing else of the flow's — not the
// other shard's row, not the Tally itself (embedded in the sender's
// endpoint) — while a one-shard tally books inline.
func TestSpreadTallyOwnsItsLines(t *testing.T) {
	type span struct {
		name        string
		first, last uintptr
	}
	lines := func(name string, p unsafe.Pointer, size uintptr) span {
		at := uintptr(p)
		return span{name, at / cacheLine, (at + size - 1) / cacheLine}
	}
	var tl Tally
	tl.Spread(1, 0)
	p := NewData(1, 0, MTU, 0)
	tl.Attach(p)
	if p.tally != &tl.own {
		t.Error("a one-shard tally's packet does not book inline")
	}
	p.Release()

	tl = Tally{}
	tl.Spread(2, 1)
	l := tl.spread
	spans := []span{
		lines("the Tally", unsafe.Pointer(&tl), unsafe.Sizeof(tl)),
		lines("the ledger", unsafe.Pointer(l), unsafe.Sizeof(*l)),
	}
	for s := range l.rows {
		spans = append(spans, lines(fmt.Sprintf("row %d", s), unsafe.Pointer(&l.rows[s].Books), unsafe.Sizeof(Books{})))
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if a, b := spans[i], spans[j]; a.first <= b.last && b.first <= a.last {
				t.Errorf("%s and %s share a %d-byte line", a.name, b.name, cacheLine)
			}
		}
	}
	p = NewData(1, 0, MTU, 0)
	tl.Attach(p)
	if p.tally != l {
		t.Error("a spread tally's packet does not book on its out-of-line ledger")
	}
	p.Release()
	if b := tl.Books(); b.Data != 1 || b.Released[Delivered] != 1 || l.rows[1].Data != 1 {
		t.Errorf("books %+v, want one data packet attached on shard 1 and delivered", b)
	}
}
