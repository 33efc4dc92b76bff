package topo

import (
	"math"
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
)

// attackEdge builds a two-node graph with one pure-delay edge and routes
// the given flows (data direction) over it into per-flow counters.
func attackEdge(t *testing.T, seed int64, delay sim.Time, flows ...int) (*sim.Simulator, *Graph, *Edge, map[int]*[]int64) {
	t.Helper()
	s := sim.New(seed)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	id, err := g.AddEdge("ab", a, b, delay, Impairments{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]*[]int64, len(flows))
	for _, f := range flows {
		f := f
		seqs := &[]int64{}
		got[f] = seqs
		sink := packet.NodeFunc(func(p *packet.Packet) {
			*seqs = append(*seqs, p.Seq)
			p.Release()
		})
		if _, err := g.RouteFlow(f, false, []int{id}, 0, sink); err != nil {
			t.Fatal(err)
		}
	}
	return s, g, g.Edge(id), got
}

func TestAttackValidate(t *testing.T) {
	bad := []Attack{
		{},                                // no target, no action
		{Target: Target{Flows: []int{1}}}, // no action
		{Target: Target{Fraction: 1.5}, DropRate: 0.1},                 // fraction out of range
		{Target: Target{Flows: []int{-1}}, DropRate: 0.1},              // negative flow
		{Target: Target{Flows: []int{1}}, DropRate: 2},                 // drop rate out of range
		{Target: Target{Flows: []int{1}}, ExtraDelay: -sim.Second},     // negative delay
		{Target: Target{Flows: []int{1}, From: 5, To: 5}, DropRate: 1}, // empty window
		{Target: Target{Flows: []int{1}, Dir: 7}, DropRate: 1},         // unknown direction
	}
	for i, a := range bad {
		a := a
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, a)
		}
	}
	ok := Attack{Target: Target{Flows: []int{0}, Dir: TargetAck, From: sim.Second}, StripMarks: true}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid attack rejected: %v", err)
	}
}

// TestTargetedDropHitsOnlyVictim: a DropRate=1 attack on flow 1 kills all
// of flow 1's packets while flow 2 sails through untouched.
func TestTargetedDropHitsOnlyVictim(t *testing.T) {
	var tl packet.Tally
	s, g, e, got := attackEdge(t, 1, sim.Millisecond, 1, 2)
	e.SetAttack(&Attack{Target: Target{Flows: []int{1}}, DropRate: 1})
	entry := at(g, e.From.ID)
	for i := 0; i < 50; i++ {
		entry.Recv(tl.NewData(1, int64(i), packet.MTU, 0))
		entry.Recv(tl.NewData(2, int64(i), packet.MTU, 0))
	}
	s.Run()
	if n := len(*got[1]); n != 0 {
		t.Errorf("victim flow 1 delivered %d packets, want 0", n)
	}
	if n := len(*got[2]); n != 50 {
		t.Errorf("bystander flow 2 delivered %d packets, want 50", n)
	}
	if d := ended(&tl, packet.Adversary); d != 50 {
		t.Errorf("adversary drops = %d, want 50", d)
	}
}

// TestAttackWindow: the attack only bites inside [From, To).
func TestAttackWindow(t *testing.T) {
	s, g, e, got := attackEdge(t, 1, 0, 1)
	e.SetAttack(&Attack{
		Target:   Target{Flows: []int{1}, From: 10 * sim.Millisecond, To: 20 * sim.Millisecond},
		DropRate: 1,
	})
	entry := at(g, e.From.ID)
	for i := 0; i < 30; i++ {
		seq := int64(i)
		s.At(sim.Time(i)*sim.Millisecond, func() {
			entry.Recv(packet.NewData(1, seq, packet.MTU, 0))
		})
	}
	s.Run()
	if n := len(*got[1]); n != 20 {
		t.Fatalf("delivered %d packets, want 20 (10 in-window dropped)", n)
	}
	for _, seq := range *got[1] {
		if seq >= 10 && seq < 20 {
			t.Errorf("in-window packet %d survived", seq)
		}
	}
}

// TestAttackDirection: a data-only attack spares ACKs and vice versa.
func TestAttackDirection(t *testing.T) {
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	id, err := g.AddEdge("ab", a, b, 0, Impairments{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edge(id)
	var data, acks int
	dataSink := packet.NodeFunc(func(p *packet.Packet) { data++; p.Release() })
	ackSink := packet.NodeFunc(func(p *packet.Packet) { acks++; p.Release() })
	if _, err := g.RouteFlow(1, false, []int{id}, 0, dataSink); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RouteFlow(1, true, []int{id}, 0, ackSink); err != nil {
		t.Fatal(err)
	}
	e.SetAttack(&Attack{Target: Target{Flows: []int{1}, Dir: TargetAck}, DropRate: 1})
	entry := at(g, a)
	for i := 0; i < 10; i++ {
		entry.Recv(packet.NewData(1, int64(i), packet.MTU, 0))
		d := packet.NewData(1, int64(i), packet.MTU, 0)
		ack := packet.NewAck(d, int64(i)+1, 0)
		d.Release()
		entry.Recv(ack)
	}
	s.Run()
	if data != 10 {
		t.Errorf("data delivered %d, want 10 (ack-only attack)", data)
	}
	if acks != 0 {
		t.Errorf("acks delivered %d, want 0", acks)
	}
}

// TestStripMarksDemotesAccel: mark-stripping demotes Accel→Brake on
// victim packets only, and never promotes.
func TestStripMarksDemotesAccel(t *testing.T) {
	s := sim.New(1)
	g := New(s)
	a, b := g.AddNode("a"), g.AddNode("b")
	id, err := g.AddEdge("ab", a, b, 0, Impairments{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edge(id)
	e.SetAttack(&Attack{Target: Target{Flows: []int{1}}, StripMarks: true})
	var ecns []packet.ECN
	sink := packet.NodeFunc(func(p *packet.Packet) { ecns = append(ecns, p.ECN); p.Release() })
	if _, err := g.RouteFlow(1, false, []int{id}, 0, sink); err != nil {
		t.Fatal(err)
	}
	entry := at(g, a)
	for _, ecn := range []packet.ECN{packet.Accel, packet.Brake, packet.Accel} {
		p := packet.NewData(1, 0, packet.MTU, 0)
		p.ECN = ecn
		entry.Recv(p)
	}
	s.Run()
	want := []packet.ECN{packet.Brake, packet.Brake, packet.Brake}
	for i, ecn := range ecns {
		if ecn != want[i] {
			t.Errorf("packet %d ECN = %d, want %d", i, ecn, want[i])
		}
	}
	if e.AdvStripped != 2 || g.AdversaryStripped() != 2 {
		t.Errorf("AdvStripped = %d (graph %d), want 2", e.AdvStripped, g.AdversaryStripped())
	}
}

// TestExtraDelayReorders: victims are deferred and overtaken by
// untargeted packets — unlike jitter, order is deliberately not held.
func TestExtraDelayReorders(t *testing.T) {
	s, g, e, got := attackEdge(t, 1, 0, 1, 2)
	e.SetAttack(&Attack{Target: Target{Flows: []int{1}}, ExtraDelay: 5 * sim.Millisecond})
	entry := at(g, e.From.ID)
	var order []int
	for f := 1; f <= 2; f++ {
		f := f
		sink := packet.NodeFunc(func(p *packet.Packet) { order = append(order, f); p.Release() })
		// Rebind delivery tails to record global arrival order.
		flowSlot(g, f).tail[0] = sink
	}
	entry.Recv(packet.NewData(1, 0, packet.MTU, 0)) // victim, deferred 5ms
	entry.Recv(packet.NewData(2, 0, packet.MTU, 0)) // bystander, immediate
	s.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("arrival order = %v, want [2 1] (bystander overtakes deferred victim)", order)
	}
	if e.AdvDelayed != 1 || g.AdversaryDelayed() != 1 {
		t.Errorf("AdvDelayed = %d (graph %d), want 1", e.AdvDelayed, g.AdversaryDelayed())
	}
	_ = got
}

// TestSetAttackRetune: replacing the attack mid-run switches victims, and
// clearing it stops the attack entirely.
func TestSetAttackRetune(t *testing.T) {
	var tl packet.Tally
	s, g, e, got := attackEdge(t, 1, 0, 1, 2)
	e.SetAttack(&Attack{Target: Target{Flows: []int{1}}, DropRate: 1})
	entry := at(g, e.From.ID)
	inject := func(n int) {
		for i := 0; i < n; i++ {
			entry.Recv(tl.NewData(1, 0, packet.MTU, 0))
			entry.Recv(tl.NewData(2, 0, packet.MTU, 0))
		}
	}
	inject(10) // phase 1: flow 1 victimized
	e.SetAttack(&Attack{Target: Target{Flows: []int{2}}, DropRate: 1})
	inject(10) // phase 2: flow 2 victimized
	e.SetAttack(nil)
	if e.Attacked() {
		t.Fatal("Attacked() true after clearing")
	}
	inject(10) // phase 3: honest
	s.Run()
	if n := len(*got[1]); n != 20 {
		t.Errorf("flow 1 delivered %d, want 20 (victim only in phase 1)", n)
	}
	if n := len(*got[2]); n != 20 {
		t.Errorf("flow 2 delivered %d, want 20 (victim only in phase 2)", n)
	}
	if d := ended(&tl, packet.Adversary); d != 20 {
		t.Errorf("adversary drops = %d, want 20", d)
	}
}

// TestFractionSelectionStableAndCalibrated: fraction-based victim
// selection is a pure function of (seed, flow) — identical across calls —
// and empirically close to the requested fraction over many flows.
func TestFractionSelectionStableAndCalibrated(t *testing.T) {
	tgt := Target{Fraction: 0.3}
	const n = 10000
	hits := 0
	for f := 0; f < n; f++ {
		first := tgt.SelectsFlow(f, 42)
		if first != tgt.SelectsFlow(f, 42) {
			t.Fatalf("flow %d selection not stable", f)
		}
		if first {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("fraction 0.3 selected %.3f of flows", got)
	}
	// A different seed picks a different victim set.
	diff := 0
	for f := 0; f < n; f++ {
		if tgt.SelectsFlow(f, 42) != tgt.SelectsFlow(f, 43) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("victim set identical across different seeds")
	}
}

// TestEdgeRNGSeededByName is the regression for the per-edge RNG fix:
// an edge's impairment pattern derives from its name, so adding an
// unrelated edge before it must not reshuffle which packets it drops.
func TestEdgeRNGSeededByName(t *testing.T) {
	run := func(extraEdge bool) []int64 {
		s := sim.New(9)
		g := New(s)
		a, b := g.AddNode("a"), g.AddNode("b")
		if extraEdge {
			c := g.AddNode("c")
			if _, err := g.AddEdge("unrelated", a, c, 0, Impairments{LossRate: 0.5}, nil); err != nil {
				t.Fatal(err)
			}
		}
		id, err := g.AddEdge("lossy", a, b, 0, Impairments{LossRate: 0.2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var seqs []int64
		sink := packet.NodeFunc(func(p *packet.Packet) { seqs = append(seqs, p.Seq); p.Release() })
		entry, err := g.RouteFlow(1, false, []int{id}, 0, sink)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			entry.Recv(packet.NewData(1, int64(i), packet.MTU, 0))
		}
		s.Run()
		return seqs
	}
	base, withExtra := run(false), run(true)
	if len(base) != len(withExtra) {
		t.Fatalf("survivor count changed: %d vs %d", len(base), len(withExtra))
	}
	for i := range base {
		if base[i] != withExtra[i] {
			t.Fatalf("loss pattern shifted at survivor %d: seq %d vs %d", i, base[i], withExtra[i])
		}
	}
}

// TestAttackRNGIndependentOfImpairments: the attack stage draws from a
// separately salted RNG stream, so installing an attack that removes no
// packets (mark-stripping) leaves the edge's impairment pattern
// byte-identical — and the two streams really are distinct.
func TestAttackRNGIndependentOfImpairments(t *testing.T) {
	run := func(attacked bool) []int64 {
		s := sim.New(5)
		g := New(s)
		a, b := g.AddNode("a"), g.AddNode("b")
		id, err := g.AddEdge("lossy", a, b, 0, Impairments{LossRate: 0.2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if attacked {
			g.Edge(id).SetAttack(&Attack{Target: Target{Flows: []int{1}}, StripMarks: true})
		}
		var seqs []int64
		sink := packet.NodeFunc(func(p *packet.Packet) { seqs = append(seqs, p.Seq); p.Release() })
		entry, err := g.RouteFlow(1, false, []int{id}, 0, sink)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			p := packet.NewData(1, int64(i), packet.MTU, 0)
			p.ECN = packet.Accel
			entry.Recv(p)
		}
		s.Run()
		return seqs
	}
	honest, attacked := run(false), run(true)
	if len(honest) != len(attacked) {
		t.Fatalf("survivor count changed under non-dropping attack: %d vs %d", len(honest), len(attacked))
	}
	for i := range honest {
		if honest[i] != attacked[i] {
			t.Fatalf("impairment loss pattern shifted at %d", i)
		}
	}
	// And the salted streams are genuinely different from each other.
	e := &Edge{Name: "lossy", g: &Graph{S: sim.New(5)}}
	imp, atk := e.rand("impair"), e.rand("attack")
	same := true
	for i := 0; i < 8; i++ {
		if imp.Int63() != atk.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("impair and attack RNG streams are identical")
	}
}
