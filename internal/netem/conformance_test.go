package netem_test

import (
	"math/rand"
	"testing"

	"abc/internal/abc"
	"abc/internal/netem"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/trace"
	"abc/internal/wifi"
)

// link is what topo.Link asks of a bottleneck model.
type link interface {
	packet.Node
	DeliveredBytes() int64
}

// linkModels is every bottleneck model, at about 12 Mbit/s (the AP at
// MCS 1), with the instant at which it books a packet's sojourn given
// when the downstream element saw the packet, and the optional interfaces
// it is meant to satisfy.
var linkModels = []struct {
	name             string
	build            func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) link
	booked           func(seen sim.Time, p *packet.Packet) sim.Time
	sink, background bool
}{
	{
		name: "trace", sink: true, background: true,
		build: func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) link {
			return netem.NewTraceLink(s, trace.Constant("conformance", 12e6), q, dst)
		},
		// At the opportunity, which is also when it delivers.
		booked: func(seen sim.Time, _ *packet.Packet) sim.Time { return seen },
	},
	{
		name: "rate", sink: true, background: true,
		build: func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) link {
			return netem.NewRateLink(s, netem.ConstRate(12e6), q, dst)
		},
		// At transmission start, one serialization time before delivery.
		booked: func(seen sim.Time, p *packet.Packet) sim.Time {
			return seen - sim.FromSeconds(float64(p.Size*8)/12e6)
		},
	},
	{
		name: "lazy", sink: true, background: true,
		build: func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) link {
			l := netem.NewRateLink(s, 12e6, q, dst)
			l.ServeLazily(&oneHandoff{l.Handoff(0, dst)})
			return l
		},
		// At transmission start, as the eventful rate link; it hands the
		// packet on as the transmission ends.
		booked: func(seen sim.Time, p *packet.Packet) sim.Time {
			return seen - sim.FromSeconds(float64(p.Size*8)/12e6)
		},
	},
	{
		name: "wifi", sink: true, background: false,
		build: func(s *sim.Simulator, q qdisc.Qdisc, dst packet.Node) link {
			cfg := wifi.DefaultLinkConfig()
			cfg.MCS = wifi.FixedMCS(1)
			return wifi.NewLink(s, cfg, q, dst, wifi.NewEstimator(cfg.MaxBatch, packet.MTU, 0))
		},
		// At the block ACK, which is also when it delivers.
		booked: func(seen sim.Time, _ *packet.Packet) sim.Time { return seen },
	},
}

// oneHandoff is the stretch behind a lazily served link whose every
// packet goes to one place.
type oneHandoff struct{ h netem.Handoff }

func (o *oneHandoff) Handoff(*packet.Packet) *netem.Handoff { return &o.h }

// TestLinkConformance drives every link model, over a droptail and over
// an ABC router at an 8-packet limit, through one seeded script of bursty
// arrivals that overruns the buffer, and checks the contract the per-edge
// audit and a trace reader rely on — the one netem.Port is meant to keep
// for all of them: every offered packet is queued or refused, a refused
// packet is released (zeroed) and a queued one is not, DeliveredBytes is
// what the downstream element saw, each delivered packet carries the
// sojourn up to that model's booking instant, and the recorder saw one
// enqueue, dequeue or drop event per such packet and one mark event per
// marking decision, all under the source id the link was given.
func TestLinkConformance(t *testing.T) {
	const src = 7
	disciplines := []struct {
		kind  string
		build func() qdisc.Qdisc
	}{
		{"droptail", func() qdisc.Qdisc { return qdisc.NewDropTail(8) }},
		{"abc", func() qdisc.Qdisc {
			r := abc.NewRouter(abc.DefaultRouterConfig())
			r.Limit = 8
			return r
		}},
	}
	for _, m := range linkModels {
		for _, d := range disciplines {
			t.Run(m.name+"/"+d.kind, func(t *testing.T) {
				s := sim.New(5)
				q := d.build()
				arrived := map[int64]sim.Time{}
				var seenPkts, seenBytes int64
				l := m.build(s, q, packet.NodeFunc(func(p *packet.Packet) {
					seenPkts++
					seenBytes += int64(p.Size)
					if want := m.booked(s.Now(), p) - arrived[p.Seq]; p.QueueDelay != want {
						t.Errorf("seq %d: QueueDelay %v, booked − arrival = %v", p.Seq, p.QueueDelay, want)
					}
				}))
				rec := obs.NewRecorder(1<<16, obs.CatPacket|obs.CatMark)
				sink, ok := l.(obs.Sink)
				if !ok {
					t.Fatalf("%T is not an obs.Sink: its edge is dark to the flight recorder", l)
				}
				sink.SetObs(rec, src)

				rng := rand.New(rand.NewSource(11))
				var offered, refused int64
				at := sim.Time(0)
				for burst := 0; burst < 600; burst++ {
					at += sim.Time(rng.Int63n(int64(4 * sim.Millisecond)))
					for n := 1 + rng.Intn(6); n > 0; n-- {
						offered++
						// Built by hand, not from the free list, so a
						// released packet stays zeroed.
						p := &packet.Packet{
							Flow: 1 + rng.Intn(3), Seq: offered, Size: int32(40 + rng.Intn(packet.MTU-39)),
							ECN: packet.Accel, ABCFlow: true,
						}
						s.At(at, func() {
							arrived[p.Seq] = s.Now()
							l.Recv(p)
							if *p == (packet.Packet{}) {
								refused++
							}
						})
					}
				}
				s.RunUntil(at + sim.Second)

				st := q.Counters()
				if refused == 0 || seenPkts == 0 {
					t.Fatalf("script refused %d and delivered %d: want both", refused, seenPkts)
				}
				if q.Len() != 0 {
					t.Fatalf("%d packets still queued a second after the last arrival", q.Len())
				}
				if st.EnqueuedPackets+refused != offered || st.DroppedPackets != refused || st.DequeuedPackets != seenPkts {
					t.Errorf("offered %d, refused (zeroed) %d, delivered %d; counters %+v", offered, refused, seenPkts, st)
				}
				if l.DeliveredBytes() != seenBytes {
					t.Errorf("DeliveredBytes %d, downstream saw %d", l.DeliveredBytes(), seenBytes)
				}
				if rec.Overwritten() != 0 {
					t.Fatal("recorder ring too small for the script")
				}
				events := map[obs.Kind]int64{}
				for _, e := range rec.Snapshot() {
					events[e.Kind]++
					if e.Src != src {
						t.Fatalf("event %v under source %d, want %d", e.Kind, e.Src, src)
					}
				}
				if events[obs.EvEnqueue] != st.EnqueuedPackets || events[obs.EvDequeue] != seenPkts || events[obs.EvQdiscDrop] != refused {
					t.Errorf("events %v; enqueued %d, delivered %d, refused %d", events, st.EnqueuedPackets, seenPkts, refused)
				}
				var marks int64
				if r, ok := q.(*abc.Router); ok {
					marks = r.AccelMarked + r.BrakeMarked
					if marks != seenPkts {
						t.Errorf("router marked %d of %d delivered packets", marks, seenPkts)
					}
				}
				if got := events[obs.EvAccel] + events[obs.EvBrake]; got != marks {
					t.Errorf("%d accel + brake events, router counted %d", got, marks)
				}
			})
		}
	}
}

// TestLinkCapabilities pins which optional interfaces each link model
// satisfies, as TestDisciplineCapabilities does for disciplines: topo
// type-asserts them, so a model that newly became BackgroundAware through
// what it embeds would accept a fluid aggregate its schedule ignores, and
// one that is no obs.Sink leaves its edge out of every trace.
func TestLinkCapabilities(t *testing.T) {
	for _, m := range linkModels {
		l := m.build(sim.New(1), qdisc.NewDropTail(8), &packet.Sink{})
		_, sink := l.(obs.Sink)
		_, background := l.(qdisc.BackgroundAware)
		if sink != m.sink || background != m.background {
			t.Errorf("%s (%T): sink %v background %v, want %v %v", m.name, l, sink, background, m.sink, m.background)
		}
	}
}
