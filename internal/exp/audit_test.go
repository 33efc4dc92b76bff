package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// refusing wraps a discipline and hands each packet it refuses to
// onRefuse, which reports whether to tell the port it was queued instead.
type refusing struct {
	qdisc.Qdisc
	onRefuse func(p *packet.Packet) bool
}

func (r *refusing) Enqueue(now sim.Time, p *packet.Packet) bool {
	return r.Qdisc.Enqueue(now, p) || r.onRefuse(p)
}

// unhanded wraps a discipline whose n-th dequeue releases the packet it
// took and hands the link the next one instead: a lazy link's advance
// that loses a dequeued packet without scheduling its handoff.
type unhanded struct {
	qdisc.Qdisc
	n int
}

func (u *unhanded) Dequeue(now sim.Time) *packet.Packet {
	p := u.Qdisc.Dequeue(now)
	if u.n--; u.n == 0 && p != nil {
		p.Release()
		return u.Qdisc.Dequeue(now)
	}
	return p
}

// TestAuditCatchesMutations seeds five bookkeeping bugs into a compiled
// run, each through the graph it built, and requires Run to fail with the
// identity each one breaks: a swallowed packet leaves the books holding a
// packet the network does not; a refused packet dropped a second time,
// and a refusal booked as an impairment loss, leave the refusals on the
// books disagreeing with the discipline's; an event left pending for a
// stopped endpoint is one a recycled endpoint would run for its next
// flow; and a packet that a lazily served link dequeues and releases
// unhanded leaves one more packet ended delivered than its receiver
// took in.
func TestAuditCatchesMutations(t *testing.T) {
	spec := Spec{
		Seed:     1,
		Duration: 2 * sim.Second,
		Warmup:   500 * sim.Millisecond,
		RTT:      50 * sim.Millisecond,
		Links:    []LinkSpec{{Rate: netem.ConstRate(10e6), Qdisc: QdiscSpec{Kind: "droptail", Buffer: 20}}},
		Flows:    []FlowSpec{{Scheme: "Cubic"}},
	}
	link := func(c *compiled) *netem.RateLink { return c.g.Edge(0).Link.(*netem.RateLink) }
	cases := []struct {
		name   string
		mutate func(c *compiled)
		want   string
	}{
		{"clean", func(*compiled) {}, ""},
		{"leak", func(c *compiled) {
			l := link(c)
			dst, n := l.Dst, 0
			l.Dst = packet.NodeFunc(func(p *packet.Packet) {
				if n++; n != 100 {
					dst.Recv(p)
				}
			})
		}, "packets live on the books, the network holds"},
		{"dropped twice", func(c *compiled) {
			l := link(c)
			l.Q = &refusing{l.Q, func(p *packet.Packet) bool {
				twin := packet.Get()
				*twin = *p
				twin.Drop(packet.Refused)
				return false
			}}
		}, "ended refused or dropped inside a discipline, the disciplines dropped"},
		{"wrong cause", func(c *compiled) {
			l := link(c)
			l.Q = &refusing{l.Q, func(p *packet.Packet) bool {
				p.Drop(packet.Impair)
				return true
			}}
		}, "ended refused or dropped inside a discipline, the disciplines dropped"},
		{"stale event", func(c *compiled) {
			ep := c.flows[0].ep
			ep.S.At(sim.Second, func() {
				ep.Stop()
				ep.S.AfterArgs(5*sim.Second, func(any, any) {}, ep, nil)
			})
		}, "flow 0: its endpoint is stopped but has an event pending"},
	}
	// The same flow over a one-edge static mesh, whose rate link serves
	// its queue lazily.
	mesh := spec
	mesh.Links, mesh.Nodes = nil, []string{"a", "b"}
	mesh.Edges = []EdgeSpec{{Name: "ab", From: "a", To: "b", Link: LinkSpec{Rate: 10e6, Delay: 5 * sim.Millisecond,
		Qdisc: QdiscSpec{Kind: "droptail", Buffer: 20}}}}
	mesh.Flows = []FlowSpec{{Scheme: "Cubic", Path: []string{"ab"}}}
	lazy := []struct {
		name   string
		mutate func(c *compiled)
		want   string
	}{
		{"clean lazy", func(*compiled) {}, ""},
		{"lazy advance loses a packet", func(c *compiled) {
			l := link(c)
			l.Q = &unhanded{l.Q, 100}
		}, "data packets ended delivered, the receiver took in"},
	}
	for _, tc := range lazy {
		c, err := compile(mesh, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !link(c).Lazy() {
			t.Fatalf("%s: the mesh's rate link is not served lazily", tc.name)
		}
		tc.mutate(c)
		_, _, err = c.run(nil)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Run returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	for _, tc := range cases {
		c, err := compile(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(c)
		_, _, err = c.run(nil)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Run returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// benchMeshSpec is the spec of the bench module's mesh_seq workload
// (bench/workloads.go, mesh): a ring of 16 junction pairs, each joined by
// a rate bottleneck and a zero-delay express wire, an 8 to 10 ms wire to
// the next pair, and one flow per pair a quarter of the way round.
func benchMeshSpec(seed int64) Spec {
	const n, dur = 16, 16 * sim.Second
	rng := rand.New(rand.NewSource(seed))
	rates := make([]float64, n)
	var sum float64
	for k := range rates {
		rates[k] = 0.7 + 0.6*rng.Float64()
		sum += rates[k]
	}
	for k := range rates {
		rates[k] *= 12.137e6 * n / sum
	}
	spec := Spec{Seed: seed, Duration: dur, Warmup: dur / 4, RTT: 30 * sim.Millisecond}
	node := func(i int) string { return fmt.Sprintf("j%d", i%(2*n)) }
	for j := 0; j < 2*n; j++ {
		spec.Nodes = append(spec.Nodes, node(j))
	}
	for k := 0; k < n; k++ {
		botDelay := sim.Time(4100+rng.Intn(900))*sim.Microsecond + sim.Time(rng.Intn(1000))
		hopDelay := sim.Time(8100+rng.Intn(1900))*sim.Microsecond + sim.Time(rng.Intn(1000))
		spec.Edges = append(spec.Edges,
			EdgeSpec{Name: fmt.Sprintf("bot%d", k), From: node(2 * k), To: node(2*k + 1),
				Link: LinkSpec{Rate: netem.ConstRate(rates[k]), Qdisc: QdiscSpec{Kind: "auto"}, Delay: botDelay}},
			EdgeSpec{Name: fmt.Sprintf("exp%d", k), From: node(2 * k), To: node(2*k + 1),
				Link: LinkSpec{Kind: "wire"}},
			EdgeSpec{Name: fmt.Sprintf("hop%d", k), From: node(2*k + 1), To: node(2*k + 2),
				Link: LinkSpec{Kind: "wire", Delay: hopDelay}},
		)
	}
	for k := 0; k < n; k++ {
		scheme := "ABC"
		if k%2 == 1 {
			scheme = "Cubic"
		}
		path := []string{fmt.Sprintf("bot%d", k), fmt.Sprintf("hop%d", k)}
		for h := 1; h <= 3; h++ {
			path = append(path, fmt.Sprintf("exp%d", (k+h)%n), fmt.Sprintf("hop%d", (k+h)%n))
		}
		spec.Flows = append(spec.Flows, FlowSpec{Scheme: scheme, Path: path})
	}
	return spec
}

// BenchmarkAudit times the packet-books audit that ends every Run, on the
// finished 16 s bench mesh (benchMeshSpec), and reports it as a share of
// that run's wall time: audit-share is what the audit adds to mesh_seq.
func BenchmarkAudit(b *testing.B) {
	c, err := compile(benchMeshSpec(1), nil)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	c.runAndMeasure(nil)
	if err := finishWorkloads(c.workloads); err != nil {
		b.Fatal(err)
	}
	run := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.audit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(run), "audit-share")
}
