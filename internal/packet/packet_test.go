package packet

import (
	"math"
	"runtime"
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

// TestDropZeroes: a packet no arena holds is zeroed at its end, tallied
// or not, so a use after the end reads an empty packet, and Get hands
// out zeroed ones.
func TestDropZeroes(t *testing.T) {
	var tl Tally
	for _, p := range []*Packet{NewData(3, 42, MTU, 7), tl.NewData(3, 43, MTU, 7)} {
		p.ECN = Accel
		p.QueueDelay = 5
		p.Drop(Refused)
		if *p != (Packet{}) {
			t.Errorf("Drop left a dirty packet: %+v", p)
		}
	}
	if b := tl.Books(); b.Data != 1 || b.Released[Refused] != 1 {
		t.Errorf("books %+v, want the tallied packet ended refused", b)
	}
	if q := Get(); *q != (Packet{}) {
		t.Errorf("Get returned a dirty packet: %+v", q)
	}
}

// TestTallyDrainsOnce: a tallied data packet and the ACK built from it
// are both counted until released; the drain callback runs only after
// Finish and at zero, exactly once, and untallied packets never touch a
// tally.
func TestTallyDrainsOnce(t *testing.T) {
	var tl Tally
	drains := 0
	d1, d2 := tl.NewData(1, 0, MTU, 0), tl.NewData(1, 1, MTU, 0)
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
	tl.NewData(1, 2, MTU, 0).Release()
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

// TestTallyBooksByCause: an ACK is attached to its data packet's tally,
// and every end names its cause.
func TestTallyBooksByCause(t *testing.T) {
	var tl Tally
	d := tl.NewData(1, 0, MTU, 0)
	a := NewAck(d, 1, 0)
	d.Release()
	a.Drop(Late)
	if got := tl.Books(); got.Data != 1 || got.Acks != 1 || got.Released[Delivered] != 1 || got.Released[Late] != 1 || got.Live() != 0 {
		t.Fatalf("books = %+v, want one data packet delivered and one ACK ended late", got)
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

// TestPacketLayout: a packet is exactly two cache lines, the fields
// every hop touches are in the first, and a fresh one starts on a line
// boundary.
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
		{"SentAt", unsafe.Offsetof(Packet{}.SentAt)},
		{"QueueDelay", unsafe.Offsetof(Packet{}.QueueDelay)}, {"tally", unsafe.Offsetof(Packet{}.tally)},
	}
	for _, f := range hot {
		if f.offset >= cacheLine {
			t.Errorf("Packet.%s at offset %d, want it in the first %d-byte line", f.name, f.offset, cacheLine)
		}
	}
	// The packets are kept in a slice, as a run keeps its packets in
	// queues, so they escape to the heap: a packet that never escapes is
	// placed on the stack, which makes no such promise.
	kept := make([]*Packet, 64)
	for i := range kept {
		kept[i] = Get()
		if at := uintptr(unsafe.Pointer(kept[i])); at%cacheLine != 0 {
			t.Fatalf("Get returned a packet at %#x, not on a %d-byte line boundary", at, cacheLine)
		}
	}
}

// TestArenaCarvesSlabs: drawing n packets from an empty arena allocates
// ⌈n/63⌉ slabs of 8 KiB and nothing else, and every packet it hands out
// starts on a line boundary.
func TestArenaCarvesSlabs(t *testing.T) {
	// heapBytes is the fewest heap bytes f allocates after setup over a
	// few tries: TotalAlloc is process-wide, and on a busy host the
	// runtime or the test framework allocates on other goroutines
	// mid-measurement. An allocation of f's own shows in every try.
	heapBytes := func(setup, f func()) uint64 {
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			setup()
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	var a *Arena
	if got := heapBytes(func() { a = new(Arena) }, func() { a.get() }); got != 8192 {
		t.Errorf("a slab took %d bytes of heap, want 8192", got)
	}
	if got := heapBytes(func() { a = new(Arena); a.get() }, func() { a.put(a.get()) }); got != 2048 {
		t.Errorf("a free list took %d bytes of heap, want 2048", got)
	}
	for _, n := range []int{1, 62, 63, 64, 200} {
		misaligned := 0
		allocs := testing.AllocsPerRun(10, func() {
			*a = Arena{}
			for i := 0; i < n; i++ {
				if uintptr(unsafe.Pointer(a.get()))%cacheLine != 0 {
					misaligned++
				}
			}
		})
		if want := (n + slabPackets - 1) / slabPackets; allocs != float64(want) {
			t.Errorf("%d packets: %v allocations, want %d slabs", n, allocs, want)
		}
		if misaligned != 0 {
			t.Errorf("%d packets: %d not on a %d-byte line boundary", n, misaligned, cacheLine)
		}
	}
}

// TestArenaRecyclesZeroed: a packet of an arena-backed tally goes back
// to the arena zeroed and is the next one drawn there, and the free list
// is allocated whole at the first return.
func TestArenaRecyclesZeroed(t *testing.T) {
	var arena Arena
	var tl Tally
	tl.UseArena(&arena)
	p := tl.NewData(3, 42, MTU, 7)
	p.ECN, p.QueueDelay = Accel, 5
	a := NewAck(p, 43, 9)
	p.Release()
	if free := arena.free; len(free) != 1 || free[0] != p || cap(free) != maxFree {
		t.Fatalf("free list %v (cap %d) after one release, want [%p] (cap %d)", free, cap(free), p, maxFree)
	}
	q := NewAck(a, 44, 10)
	if q != p || !q.IsAck || q.Seq != 42 || q.ECN != Accel || q.QueueDelay != 0 {
		t.Errorf("NewAck drew %p %+v, want the released %p rebuilt from zero", q, q, p)
	}
	a.Release()
	q.Release()
	if got := arena.get(); got != q || *got != (Packet{}) {
		t.Errorf("arena handed back %p %+v, want the last released %p, zeroed", got, got, q)
	}
}

// TestArenaFreeListIsCapped: once an arena's free list holds maxFree
// packets, the packets that end there are booked but not kept: they are
// the collector's.
func TestArenaFreeListIsCapped(t *testing.T) {
	var arena Arena
	var tl Tally
	tl.UseArena(&arena)
	ps := make([]*Packet, maxFree+1)
	for i := range ps {
		ps[i] = tl.NewData(1, int64(i), MTU, 0)
	}
	for _, p := range ps {
		p.Release()
	}
	free := arena.free
	if len(free) != maxFree || cap(free) != maxFree || free[maxFree-1] != ps[maxFree-1] {
		t.Fatalf("free list of %d (cap %d), want the first %d packets ended", len(free), cap(free), maxFree)
	}
	for _, p := range free {
		if p == ps[maxFree] {
			t.Fatal("the packet past the cap is on the free list")
		}
	}
	if b := tl.Books(); b.Data != maxFree+1 || b.Live() != 0 {
		t.Errorf("books %+v, want all %d packets attached and ended", b, maxFree+1)
	}
}

// TestArenaOnlyForArenaTallies: a packet of a tally without an arena,
// the ACK built from it and an untallied packet all end off the arena,
// even while the run's arena is in use.
func TestArenaOnlyForArenaTallies(t *testing.T) {
	var arena Arena
	var tl, plain Tally
	tl.UseArena(&arena)
	own := tl.NewData(1, 0, MTU, 0)
	other := plain.NewData(2, 0, MTU, 0)
	ack := NewAck(other, 1, 0)
	other.Release()
	ack.Release()
	NewData(3, 0, MTU, 0).Release()
	if len(arena.free) != 0 {
		t.Errorf("free list %v, want other tallies' and untallied packets off it", arena.free)
	}
	if b := plain.Books(); b.Data != 1 || b.Acks != 1 || b.Live() != 0 {
		t.Errorf("arenaless books %+v, want one data packet and its ACK, both ended", b)
	}
	own.Release()
	if len(arena.free) != 1 {
		t.Errorf("the flow's own packet did not go back to its arena")
	}
}
