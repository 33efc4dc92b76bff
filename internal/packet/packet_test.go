package packet

import (
	"fmt"
	"math"
	"reflect"
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

func TestPoolRecyclesZeroed(t *testing.T) {
	p := NewData(3, 42, MTU, 7)
	p.ECN = Accel
	p.QueueDelay = 5
	p.Release()
	q := Get()
	// q may or may not be the same object (the pool makes no promise),
	// but it must be zeroed either way.
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

// TestTallyRowsPerShard: a spread tally books an attach on the sender's
// shard and each end on the shard the packet was moved to, so no row
// balances alone while their sum does; Adopt leaves a tallied packet on
// its own books, and every end names its cause.
func TestTallyRowsPerShard(t *testing.T) {
	var tl, strays Tally
	tl.Spread(3, 1, nil)
	strays.Spread(3, 0, nil)
	d := tl.NewData(1, 0, MTU, 0)
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
	tl.Spread(1, 0, nil)
	p := tl.NewData(1, 0, MTU, 0)
	if p.tally != &tl.own {
		t.Error("a one-shard tally's packet does not book inline")
	}
	p.Release()

	tl = Tally{}
	tl.Spread(2, 1, nil)
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
	p = tl.NewData(1, 0, MTU, 0)
	if p.tally != l {
		t.Error("a spread tally's packet does not book on its out-of-line ledger")
	}
	p.Release()
	if b := tl.Books(); b.Data != 1 || b.Released[Delivered] != 1 || l.rows[1].Data != 1 {
		t.Errorf("books %+v, want one data packet attached on shard 1 and delivered", b)
	}
}

// TestArenasOwnTheirLines: in a slice of arenas, one per shard as a
// sharded graph makes them, what each shard writes on every packet it
// draws or ends — its arena's free list and slab headers — shares no
// cache line with another shard's, at any shard count.
func TestArenasOwnTheirLines(t *testing.T) {
	if size := unsafe.Sizeof(Arena{}); size != 2*cacheLine {
		t.Fatalf("sizeof(Arena) = %d, want %d", size, 2*cacheLine)
	}
	written := unsafe.Offsetof(Arena{}.slab) + unsafe.Sizeof(Arena{}.slab)
	for shards := 2; shards <= 16; shards++ {
		arenas := make([]Arena, shards)
		lines := func(i int) (first, last uintptr) {
			at := uintptr(unsafe.Pointer(&arenas[i]))
			return at / cacheLine, (at + written - 1) / cacheLine
		}
		for i := range arenas {
			for j := i + 1; j < shards; j++ {
				fi, li := lines(i)
				fj, lj := lines(j)
				if fi <= lj && fj <= li {
					t.Errorf("%d shards: arenas %d and %d at %p and %p share a %d-byte line",
						shards, i, j, &arenas[i], &arenas[j], cacheLine)
				}
			}
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
	arenas := make([]Arena, 1)
	var tl Tally
	tl.Spread(1, 0, arenas)
	p := tl.NewData(3, 42, MTU, 7)
	p.ECN, p.QueueDelay = Accel, 5
	a := NewAck(p, 43, 9)
	p.Release()
	if free := arenas[0].free; len(free) != 1 || free[0] != p || cap(free) != maxFree {
		t.Fatalf("free list %v (cap %d) after one release, want [%p] (cap %d)", free, cap(free), p, maxFree)
	}
	q := NewAck(a, 44, 10)
	if q != p || !q.IsAck || q.Seq != 42 || q.ECN != Accel || q.QueueDelay != 0 {
		t.Errorf("NewAck drew %p %+v, want the released %p rebuilt from zero", q, q, p)
	}
	a.Release()
	q.Release()
	if got := arenas[0].get(); got != q || *got != (Packet{}) {
		t.Errorf("arena handed back %p %+v, want the last released %p, zeroed", got, got, q)
	}
}

// TestArenaOfTheEndingShard: a packet born on one shard and ended on
// another goes to the arena of the shard it ended on, and the ACK that
// shard builds next is drawn from there.
func TestArenaOfTheEndingShard(t *testing.T) {
	arenas := make([]Arena, 2)
	var tl Tally
	tl.Spread(2, 0, arenas)
	d := tl.NewData(1, 0, MTU, 0)
	if len(arenas[0].slab) != slabPackets-1 || arenas[1].slab != nil {
		t.Fatalf("data packet not carved on the sender's shard: %d and %d packets left in the shards' slabs",
			len(arenas[0].slab), len(arenas[1].slab))
	}
	d.MoveTo(1)
	d.Release()
	if len(arenas[0].free) != 0 || len(arenas[1].free) != 1 || arenas[1].free[0] != d {
		t.Fatalf("free lists %v and %v, want the packet on shard 1's alone", arenas[0].free, arenas[1].free)
	}
	d2 := tl.NewData(1, 1, MTU, 0)
	d2.MoveTo(1)
	if a := NewAck(d2, 2, 0); a != d {
		t.Errorf("shard 1 built its ACK in %p, want the packet that ended there, %p", a, d)
	}
}

// TestArenaFreeListIsCapped: once a shard's free list holds maxFree
// packets, the packets that end there are booked but not kept: they are
// the collector's.
func TestArenaFreeListIsCapped(t *testing.T) {
	arenas := make([]Arena, 2)
	var tl Tally
	tl.Spread(2, 0, arenas)
	ps := make([]*Packet, maxFree+1)
	for i := range ps {
		ps[i] = tl.NewData(1, int64(i), MTU, 0)
		ps[i].MoveTo(1)
	}
	for _, p := range ps {
		p.Release()
	}
	free := arenas[1].free
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

// TestArenaOnlyForArenaTallies: a packet a tally without arenas adopts
// (a graph's strays), the ACK built from it and an untallied packet all
// go back to the pool, even on shards whose arenas are in use.
func TestArenaOnlyForArenaTallies(t *testing.T) {
	arenas := make([]Arena, 2)
	var tl, strays Tally
	tl.Spread(2, 0, arenas)
	strays.Spread(2, 0, nil)
	own := tl.NewData(1, 0, MTU, 0)
	stray := NewData(2, 0, MTU, 0)
	strays.Adopt(stray, 1)
	ack := NewAck(stray, 1, 0)
	stray.Release()
	ack.Release()
	NewData(3, 0, MTU, 0).Release()
	if len(arenas[0].free) != 0 || !reflect.ValueOf(arenas[1]).IsZero() {
		t.Errorf("free lists %v and %v, want stray and untallied packets in neither", arenas[0].free, arenas[1].free)
	}
	if b := strays.Books(); b.Data != 1 || b.Acks != 1 || b.Live() != 0 {
		t.Errorf("stray books %+v, want one data packet and its ACK, both ended", b)
	}
	own.Release()
	if len(arenas[0].free) != 1 {
		t.Errorf("the flow's own packet did not go back to its arena")
	}
}
