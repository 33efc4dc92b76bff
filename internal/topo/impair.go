// Impairment elements: per-edge jitter and random and bursty loss. They
// sit in front of an edge's link, so
// impaired traffic is dropped or delayed before it ever occupies the
// bottleneck queue, mirroring where radio-layer loss and scheduling
// jitter occur on real paths.
package topo

import (
	"math/rand"

	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
)

// Impairments configures an edge's impairment stage. The zero value means
// an unimpaired edge and adds no elements at all. The struct tags are
// its scenario-file keys.
type Impairments struct {
	// LossRate drops each packet independently with this probability.
	LossRate float64 `spec:"loss"`
	// Burst loss follows a two-state Gilbert-Elliott model: in the bad
	// state packets drop with BurstLossRate; the chain moves good→bad
	// with probability BurstPBad per packet and bad→good with BurstPGood.
	BurstLossRate float64 `spec:"burst_loss"`
	BurstPBad     float64 `spec:"burst_p_bad"`
	BurstPGood    float64 `spec:"burst_p_good"`
	// Jitter adds a uniform random extra delay in [0, Jitter] per packet.
	// Delivery order is preserved (FIFO jitter): a packet never overtakes
	// one that entered before it.
	Jitter sim.Time `spec:"jitter_ms"`
}

// zero reports whether the stage would be a no-op.
func (im Impairments) zero() bool {
	return im.LossRate <= 0 && im.BurstLossRate <= 0 && im.Jitter <= 0
}

// dropImpaired is the one drop point of the edge's impairment stage:
// traced under the edge id, dropped as packet.Impair.
func (e *Edge) dropImpaired(p *packet.Packet) {
	if e.g.rec.Enabled(obs.CatPacket) {
		e.g.rec.Emit(int64(e.g.S.Now()), obs.EvImpairDrop, int32(e.ID), int32(p.Flow), 0, 0)
	}
	p.Drop(packet.Impair)
}

// build assembles edge e's stage in a fixed order — loss, burst loss,
// jitter — and returns its head. The fixed order keeps runs
// deterministic and reproducible from the spec alone. All elements share
// one RNG, the edge's private stream seeded from its name: the pattern
// one edge draws never depends on what other edges exist or forward (see
// Graph.AddEdge).
func (im Impairments) build(e *Edge, dst packet.Node) packet.Node {
	s, rng := e.g.S, e.rand("impair")
	head := dst
	if im.Jitter > 0 {
		head = &jitterPipe{s: s, rng: rng, dst: head, max: im.Jitter}
	}
	if im.BurstLossRate > 0 {
		pBad, pGood := im.BurstPBad, im.BurstPGood
		if pBad <= 0 {
			pBad = 0.01
		}
		if pGood <= 0 {
			pGood = 0.2
		}
		head = &burstGate{rng: rng, dst: head, lossBad: im.BurstLossRate, pBad: pBad, pGood: pGood, e: e}
	}
	if im.LossRate > 0 {
		head = &lossGate{rng: rng, dst: head, p: im.LossRate, e: e}
	}
	return head
}

// lossGate drops packets independently with probability p.
type lossGate struct {
	rng *rand.Rand
	dst packet.Node
	p   float64
	e   *Edge
}

// Recv implements packet.Node.
func (l *lossGate) Recv(p *packet.Packet) {
	if l.rng.Float64() < l.p {
		l.e.dropImpaired(p)
		return
	}
	l.dst.Recv(p)
}

// burstGate is the two-state Gilbert-Elliott loss model.
type burstGate struct {
	rng     *rand.Rand
	dst     packet.Node
	lossBad float64
	pBad    float64 // good → bad transition probability per packet
	pGood   float64 // bad → good transition probability per packet
	bad     bool
	e       *Edge
}

// Recv implements packet.Node.
func (b *burstGate) Recv(p *packet.Packet) {
	if b.bad {
		if b.rng.Float64() < b.pGood {
			b.bad = false
		}
	} else if b.rng.Float64() < b.pBad {
		b.bad = true
	}
	if b.bad && b.rng.Float64() < b.lossBad {
		b.e.dropImpaired(p)
		return
	}
	b.dst.Recv(p)
}

// jitterDeliver is the static delivery callback (no per-packet closure).
func jitterDeliver(a, b any) { a.(*jitterPipe).dst.Recv(b.(*packet.Packet)) }

// jitterPipe adds uniform random delay while preserving FIFO order: each
// packet's deadline is clamped to be no earlier than the previous one's.
type jitterPipe struct {
	s    *sim.Simulator
	rng  *rand.Rand
	dst  packet.Node
	max  sim.Time
	last sim.Time // latest deadline handed out
}

// Recv implements packet.Node.
func (j *jitterPipe) Recv(p *packet.Packet) {
	now := j.s.Now()
	at := now + sim.Time(j.rng.Int63n(int64(j.max)+1))
	if at < j.last {
		at = j.last
	}
	j.last = at
	j.s.AfterArgs(at-now, jitterDeliver, j, p)
}
