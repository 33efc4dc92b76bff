package qdisc_test

import (
	"math/rand"
	"strings"
	"testing"

	"abc/internal/abc"
	_ "abc/internal/explicit"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sched"
	"abc/internal/sim"
)

// build constructs a registered kind at a small limit with a constant
// 12 Mbit/s capacity installed where the kind asks for one.
func build(t testing.TB, kind string, buffer int) qdisc.Qdisc {
	t.Helper()
	q, err := qdisc.Build(qdisc.BuildSpec{Kind: kind, Buffer: buffer, Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if ca, ok := q.(qdisc.CapacityAware); ok {
		ca.SetCapacityProvider(func(sim.Time) float64 { return 12e6 })
	}
	return q
}

// TestDisciplineConformance drives every registered kind through one
// seeded offer/drain script at an 8-packet limit, overloaded so the
// buffer stands full (CoDel then drops from inside), against a model of
// what the queue must hold. It checks the contract the per-hop audit
// relies on: the counters conserve packets, Len and Bytes describe the
// queued packets, the store stamps EnqueuedAt, each leaf is FIFO, a
// refused packet comes back untouched (the caller owns it) and a packet
// dropped inside the discipline is released exactly once — zeroed, and
// counted once. Every leaf, and each child of a dual queue, fills to the
// 8-packet limit and never past it.
func TestDisciplineConformance(t *testing.T) {
	type offered struct {
		p    *packet.Packet
		at   sim.Time
		seq  int64
		size int
		abc  bool
	}
	for _, kind := range qdisc.Kinds() {
		t.Run(kind, func(t *testing.T) {
			q := build(t, kind, 8)
			limit := 8
			leaves := func() []int {
				if dq, ok := q.(*sched.DualQueue); ok {
					return []int{dq.ABC.Len(), dq.Other.Len()}
				}
				return []int{q.Len()}
			}
			peak := 0
			rng := rand.New(rand.NewSource(11))
			var queued []offered // accepted, not yet seen leaving
			var nOffered, refused, delivered, deliveredBytes, zeroed int64
			lastSeq := map[bool]int64{}
			// settle removes what left the queue: the delivered packet
			// and anything the discipline dropped and released.
			settle := func(out *packet.Packet) {
				kept := queued[:0]
				for _, o := range queued {
					switch {
					case o.p == out:
						delivered++
						deliveredBytes += int64(o.size)
						if o.p.EnqueuedAt != o.at {
							t.Fatalf("seq %d: EnqueuedAt %v, offered at %v", o.seq, o.p.EnqueuedAt, o.at)
						}
						// A dual queue is FIFO per child; a leaf overall.
						class := o.abc && strings.HasPrefix(kind, "dual")
						if o.seq <= lastSeq[class] {
							t.Fatalf("seq %d delivered after %d: not FIFO", o.seq, lastSeq[class])
						}
						lastSeq[class] = o.seq
					case *o.p == packet.Packet{}:
						zeroed++
					default:
						kept = append(kept, o)
					}
				}
				queued = kept
			}
			check := func(now sim.Time) {
				bytes := 0
				for _, o := range queued {
					bytes += o.size
				}
				if q.Len() != len(queued) || q.Bytes() != bytes {
					t.Fatalf("t=%v: Len %d Bytes %d, model holds %d packets / %d bytes",
						now, q.Len(), q.Bytes(), len(queued), bytes)
				}
				for _, n := range leaves() {
					if n > limit {
						t.Fatalf("t=%v: a queue holds %d packets, over its limit %d", now, n, limit)
					}
					peak = max(peak, n)
				}
				st := q.Counters()
				inside := st.DroppedPackets - refused
				if st.EnqueuedPackets+refused != nOffered || inside != zeroed ||
					st.DequeuedPackets != delivered || st.DequeuedBytes != deliveredBytes ||
					st.EnqueuedPackets != st.DequeuedPackets+inside+int64(q.Len()) {
					t.Fatalf("t=%v: counters %+v with offered %d refused %d delivered %d released %d Len %d",
						now, st, nOffered, refused, delivered, zeroed, q.Len())
				}
			}
			now := sim.Time(0)
			for step := 0; step < 4000; step++ {
				now += sim.Time(rng.Int63n(int64(3 * sim.Millisecond)))
				if rng.Intn(5) < 3 {
					nOffered++
					// Built by hand, not from the free list: a released
					// packet must stay zeroed for the model to see it.
					p := &packet.Packet{
						Flow: 1 + rng.Intn(3), Seq: nOffered, Size: int32(40 + rng.Intn(packet.MTU-39)),
						ECN: packet.Accel, ABCFlow: rng.Intn(2) == 0, SentAt: now,
					}
					before := *p
					if q.Enqueue(now, p) {
						queued = append(queued, offered{p, now, p.Seq, int(p.Size), p.ABCFlow})
					} else {
						refused++
						if *p != before {
							t.Fatalf("refused packet modified: %+v, offered %+v", *p, before)
						}
					}
				} else {
					settle(q.Dequeue(now))
				}
				check(now)
			}
			if refused == 0 {
				t.Error("script never overran the limit")
			}
			if peak != limit {
				t.Errorf("queue peaked at %d packets, want its limit %d", peak, limit)
			}
			if kind == "codel" && zeroed == 0 {
				t.Error("script never made CoDel drop from inside")
			}
			for q.Len() > 0 {
				now += sim.Millisecond
				settle(q.Dequeue(now))
				check(now)
			}
			if len(queued) != 0 {
				t.Errorf("%d accepted packets neither delivered nor released", len(queued))
			}
		})
	}
}

// TestDisciplineCapabilities pins which optional interfaces each kind
// satisfies. Links type-assert them: a discipline that newly became
// BackgroundAware would be fed a fluid backlog, a new obs.Sink would
// start emitting, a new CapacityAware would be handed µ(t). The table was
// written down before the disciplines shared a store and must not move
// because of what they embed. (The dual-* rows are sinks on purpose: the
// composite hands the recorder to its ABC child. So is codel: it traces
// the drops it makes on its dequeue side.)
func TestDisciplineCapabilities(t *testing.T) {
	type caps struct{ capacity, background, sink bool }
	want := map[string]caps{
		"abc":         {true, true, true},
		"abc-proxied": {true, true, true},
		"codel":       {sink: true},
		"droptail":    {background: true},
		"dual-maxmin": {capacity: true, sink: true},
		"dual-zombie": {capacity: true, sink: true},
		"pie":         {},
		"rcp":         {capacity: true},
		"vcp":         {capacity: true},
		"xcp":         {capacity: true},
		"xcpw":        {capacity: true},
	}
	kinds := qdisc.Kinds()
	if len(kinds) != len(want) {
		t.Errorf("registered kinds %v, table has %d rows", kinds, len(want))
	}
	for _, kind := range kinds {
		q := build(t, kind, 8)
		var got caps
		_, got.capacity = q.(qdisc.CapacityAware)
		_, got.background = q.(qdisc.BackgroundAware)
		_, got.sink = q.(obs.Sink)
		if w, ok := want[kind]; !ok || got != w {
			t.Errorf("%s: capabilities %+v, want %+v (in table: %v)", kind, got, w, ok)
		}
	}
}

// TestConfigOnlyWhereRead: qdisc.Build hands a Config only to the four
// ABC-family kinds, which read an *abc.RouterConfig, and rejects one for
// every other kind rather than ignore it. Within the family a Config of
// another type is an error, and so is a lie on every kind but "abc", the
// one router that draws from a random stream.
func TestConfigOnlyWhereRead(t *testing.T) {
	family := map[string]bool{"abc": true, "abc-proxied": true, "dual-maxmin": true, "dual-zombie": true}
	rng := rand.New(rand.NewSource(3))
	for _, kind := range qdisc.Kinds() {
		cfg := abc.DefaultRouterConfig()
		_, err := qdisc.Build(qdisc.BuildSpec{Kind: kind, Config: &cfg, Rand: rng})
		if (err == nil) != family[kind] {
			t.Errorf("%s: Build with a RouterConfig: err = %v, want accepted = %v", kind, err, family[kind])
		}
		if !family[kind] {
			continue
		}
		if _, err := qdisc.Build(qdisc.BuildSpec{Kind: kind, Config: 20 * sim.Millisecond}); err == nil {
			t.Errorf("%s: a sim.Time Config accepted", kind)
		}
		cfg.LieFraction = 0.3
		if _, err := qdisc.Build(qdisc.BuildSpec{Kind: kind, Config: &cfg, Rand: rng}); (err == nil) != (kind == "abc") {
			t.Errorf("%s: Build with a lie: err = %v", kind, err)
		}
	}
}
