package exp

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"abc/internal/abc"
	"abc/internal/app"
	"abc/internal/netem"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/trace"
)

// runScheme runs one backlogged flow of the scheme over a short cellular
// trace and returns its summary.
func runScheme(t *testing.T, scheme string, dur sim.Time) (util, meanMs, p95Ms float64) {
	t.Helper()
	tr := trace.MustNamedCellular("Verizon1")
	spec := Spec{
		Seed:     1,
		Duration: dur,
		Warmup:   3 * sim.Second,
		RTT:      100 * sim.Millisecond,
		Links:    []LinkSpec{{Trace: tr}},
		Flows:    []FlowSpec{{Scheme: scheme}},
	}
	res, pooled, err := Run(spec)
	if err != nil {
		t.Fatalf("Run(%s): %v", scheme, err)
	}
	return res.Utilization, pooled.Mean(), pooled.P95()
}

func TestHarnessABCBasic(t *testing.T) {
	util, mean, p95 := runScheme(t, "ABC", 20*sim.Second)
	t.Logf("ABC: util=%.2f mean=%.0fms p95=%.0fms", util, mean, p95)
	if util < 0.5 {
		t.Errorf("ABC utilization %.2f too low", util)
	}
	if util > 1.05 {
		t.Errorf("ABC utilization %.2f above capacity", util)
	}
	if p95 > 600 {
		t.Errorf("ABC p95 delay %.0f ms too high", p95)
	}
	if mean <= 0 {
		t.Errorf("no delay samples recorded")
	}
}

func TestHarnessCubicBuffers(t *testing.T) {
	utilC, _, p95C := runScheme(t, "Cubic", 20*sim.Second)
	t.Logf("Cubic: util=%.2f p95=%.0fms", utilC, p95C)
	if utilC < 0.7 {
		t.Errorf("Cubic utilization %.2f too low", utilC)
	}
	// Cubic should bufferbloat: delays well above the propagation RTT.
	if p95C < 150 {
		t.Errorf("Cubic p95 %.0f ms suspiciously low for a deep buffer", p95C)
	}
}

// TestOneWayOntoTheGraph guards the pipeline's shape: outside wire.go no
// file of this package constructs an endpoint or a receiver (attachFlow
// is the one place a flow goes on a graph), no file but harness.go
// builds a graph (compile builds every one, on a simulator of its own),
// and outside that build and wifiexp.go none builds a simulator or runs
// one bare. wifiexp.go is where the link-level Fig. 4/5
// micro-experiments live: they drive a bare Wi-Fi AP with no flow on it,
// so there is nothing for a graph to carry. A flow wired elsewhere is one
// the sampler, the tracer and the pooled metrics do not see.
func TestOneWayOntoTheGraph(t *testing.T) {
	// call -> the files allowed to make it.
	only := map[string][]string{
		"sim.New(":           {"harness.go", "wifiexp.go"},
		"topo.New(":          {"harness.go"},
		".RunUntil(":         {"wifiexp.go"},
		"cc.NewEndpoint(":    {"wire.go"},
		"netem.NewReceiver(": {"wire.go"},
	}
	for file, src := range sources(t) {
		for call, homes := range only {
			if !slices.Contains(homes, file) && bytes.Contains(src, []byte(call)) {
				t.Errorf("%s calls %s — only %q may", file, call, homes)
			}
		}
	}
}

// sources reads this package's non-test files, by name.
func sources(t *testing.T) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files found: %v", err)
	}
	srcs := make(map[string][]byte, len(files))
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs[file] = src
	}
	return srcs
}

// TestOneJudge guards the rule that a Spec is valid iff it builds: the
// scenario translator constructs nothing and re-checks nothing the
// pipeline checks while it builds (it ends in Check instead), and the
// routing clause is judged from one place.
func TestOneJudge(t *testing.T) {
	srcs := sources(t)
	for _, call := range []string{"cc.New(", "validateRouting(", "fluid.NewCoupler(", ".Validate()"} {
		if bytes.Contains(srcs["scenario.go"], []byte(call)) {
			t.Errorf("scenario.go calls %s — the pipeline stage that builds it is the judge", call)
		}
	}
	calls := 0
	for _, src := range srcs {
		calls += bytes.Count(src, []byte("validateRouting(")) - bytes.Count(src, []byte("func validateRouting("))
	}
	if calls != 1 {
		t.Errorf("validateRouting has %d call sites, want the one in Spec.validate", calls)
	}
}

// TestOneFrontDoor guards the rule that a Drivers row is the
// experiment: each row names its func(Params) directly rather than
// wrapping a runner in a function literal, and the package exports the
// Spec run path (RunOptions.Run), the driver table and what the CLIs and
// the benchmark module call — no per-figure runner beside the rows.
func TestOneFrontDoor(t *testing.T) {
	wantFuncs := []string{"Check", "EnableTracing", "LoadScenario", "Lookup",
		"PrintResult", "Run", "RunOptions.Run", "SummaryTable"}
	wantVars := []string{"Drivers", "Parallelism", "ReportSections", "Schemes"}
	var funcs, vars []string
	fset := token.NewFileSet()
	for name, src := range sources(t) {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					funcs = append(funcs, d.Name.Name)
				case types.ExprString(d.Recv.List[0].Type) == "RunOptions":
					funcs = append(funcs, "RunOptions."+d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, id := range vs.Names {
						if id.IsExported() {
							vars = append(vars, id.Name)
						}
						if id.Name == "Drivers" && i < len(vs.Values) {
							ast.Inspect(vs.Values[i], func(n ast.Node) bool {
								if lit, ok := n.(*ast.FuncLit); ok {
									t.Errorf("Drivers holds a function literal at %s; name the row's function", fset.Position(lit.Pos()))
								}
								return true
							})
						}
					}
				}
			}
		}
	}
	slices.Sort(funcs)
	slices.Sort(vars)
	if !slices.Equal(funcs, wantFuncs) {
		t.Errorf("exported functions = %v, want %v", funcs, wantFuncs)
	}
	if !slices.Equal(vars, wantVars) {
		t.Errorf("exported vars = %v, want %v", vars, wantVars)
	}
}

// TestNoWallClock guards the rule that a result is a function of its
// Params: no experiment reads the host's clock, so nothing it returns or
// prints varies from run to run. Measuring wall-clock cost is the bench
// module's job.
func TestNoWallClock(t *testing.T) {
	fset := token.NewFileSet()
	for name, src := range sources(t) {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				pkg = "time"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
				t.Errorf("%s reads the wall clock (time.%s)", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// TestCheckAgreesWithRun: Check is Run without the clock, so on every
// example scenario and on malformed specs of every stage — validate,
// either front end, the builder, each wiring stage — the two return the
// same error text or both nil, whether or not the run is observed.
func TestCheckAgreesWithRun(t *testing.T) {
	t.Parallel()
	observed := RunOptions{Trace: obs.NewRecorder(1<<10, obs.CatAll), Metrics: obs.NewRegistry()}
	agree := func(name string, spec Spec, wantErr bool) {
		t.Helper()
		spec.Duration = sim.Millisecond
		check := Check(spec)
		_, _, run := observed.Run(spec)
		if (check == nil) != (run == nil) || (check != nil && check.Error() != run.Error()) {
			t.Errorf("%s: Check = %v, Run = %v", name, check, run)
		}
		if (run != nil) != wantErr {
			t.Errorf("%s: Run = %v, want an error: %v", name, run, wantErr)
		}
	}

	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) < 17 {
		t.Fatalf("found %d example scenarios, want at least 17: %v", len(paths), err)
	}
	for _, path := range paths {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		agree(path, sc.Spec, false)
	}

	rate := func() LinkSpec { return LinkSpec{Rate: netem.ConstRate(8e6)} }
	chain := func() Spec {
		return Spec{Links: []LinkSpec{rate()}, Flows: []FlowSpec{{Scheme: "ABC"}}}
	}
	mesh := func() Spec {
		return Spec{
			Nodes: []string{"a", "b"},
			Edges: []EdgeSpec{{Name: "e", From: "a", To: "b", Link: rate()}, {Name: "w", From: "a", To: "b", Link: LinkSpec{Kind: "wire"}}},
			Flows: []FlowSpec{{Scheme: "ABC", Path: []string{"e"}}},
		}
	}
	agree("chain", chain(), false)
	agree("mesh", mesh(), false)
	malformed := []struct {
		name string
		base func() Spec
		set  func(*Spec)
	}{
		{"negative start", chain, func(s *Spec) { s.Flows[0].Start = -1 }},
		{"loss of 7", chain, func(s *Spec) { s.Links[0].Impair.LossRate = 7 }},
		{"unknown routing policy", chain, func(s *Spec) { s.Routing = &RoutingSpec{Policy: "rip"} }},
		{"no links", chain, func(s *Spec) { s.Links = nil }},
		{"no flows", chain, func(s *Spec) { s.Flows = nil }},
		{"wire on a chain", chain, func(s *Spec) { s.Links[0] = LinkSpec{Kind: "wire"} }},
		{"enter_at out of range", chain, func(s *Spec) { s.Flows[0].EnterAt = 3 }},
		{"path on a chain", chain, func(s *Spec) { s.Flows[0].Path = []string{"fwd0"} }},
		{"both notations", mesh, func(s *Spec) { s.Links = []LinkSpec{rate()} }},
		{"duplicate node", mesh, func(s *Spec) { s.Nodes = []string{"a", "a"} }},
		{"edge to unknown node", mesh, func(s *Spec) { s.Edges[0].To = "z" }},
		{"unknown path edge", mesh, func(s *Spec) { s.Flows[0].Path = []string{"zz"} }},
		{"ack path from the wrong node", mesh, func(s *Spec) { s.Flows[0].AckPath = []string{"w"} }},
		{"unknown qdisc kind", chain, func(s *Spec) { s.Links[0].Qdisc.Kind = "fq_pie" }},
		{"lie on droptail", chain, func(s *Spec) {
			s.Links[0].Qdisc = QdiscSpec{Kind: "droptail", ABCConfig: &abc.RouterConfig{LieFraction: 0.3}}
		}},
		{"dt on xcp", chain, func(s *Spec) {
			s.Links[0].Qdisc = QdiscSpec{Kind: "xcp", ABCConfig: &abc.RouterConfig{DelayThreshold: sim.Second}}
		}},
		{"link without a model", chain, func(s *Spec) { s.Links[0] = LinkSpec{} }},
		{"qdisc on a wire", mesh, func(s *Spec) { s.Edges[1].Link.Qdisc.Buffer = 9 }},
		{"attack rate above one", chain, func(s *Spec) { s.Links[0].Attack = &topo.Attack{Target: topo.Target{Flows: []int{0}}, DropRate: 2} }},
		{"unknown scheme", chain, func(s *Spec) { s.Flows[0].Scheme = "nope" }},
		{"unknown misbehave", chain, func(s *Spec) { s.Flows[0].Misbehave = "rude" }},
		{"app and source", chain, func(s *Spec) {
			s.Flows[0].Source, s.Flows[0].App = &SourceSpec{Kind: "fixed", Bytes: 1}, &AppSpec{Kind: "rpc"}
		}},
		{"unknown app kind", chain, func(s *Spec) { s.Flows[0].App = &AppSpec{Kind: "quic"} }},
		{"workload without sizes", chain, func(s *Spec) { s.Workloads = []WorkloadSpec{{Scheme: "ABC", Arrival: app.Poisson{PerSec: 1}}} }},
		{"event on an unknown edge", chain, func(s *Spec) { s.Events = []EventSpec{{Kind: EventLinkDown, Edge: "zz"}} }},
		{"unknown event kind", chain, func(s *Spec) { s.Events = []EventSpec{{Kind: "teleport"}} }},
		{"set_rate on a wire", mesh, func(s *Spec) { s.Events = []EventSpec{{Kind: EventSetRate, Edge: "w", RateMbps: 2}} }},
		{"unroutable reroute", mesh, func(s *Spec) { s.Events = []EventSpec{{Kind: EventReroute, Path: []string{"w", "e"}}} }},
		{"background on a wire", mesh, func(s *Spec) { s.Background = []BackgroundSpec{{Edge: "w", Kind: "const", RateMbps: 1}} }},
		{"background of an unknown kind", chain, func(s *Spec) { s.Background = []BackgroundSpec{{Edge: "fwd0", Kind: "poisson", RateMbps: 1}} }},
		{"kfailover without a backup", mesh, func(s *Spec) { s.Edges, s.Routing = s.Edges[:1], &RoutingSpec{Policy: "kfailover"} }},
	}
	for _, m := range malformed {
		spec := m.base()
		m.set(&spec)
		agree(m.name, spec, true)
	}
}

// TestOnePacketStore guards the disciplines' shape: the slice ring, the
// enqueue-time stamp and every counter increment live in the file that
// defines qdisc.Queue (and its rate meter), so a discipline file holds a
// decision and nothing the per-hop conservation check would have to
// trust separately. A ninth copy of the ring or a hand-counted drop in
// any discipline package fails here.
func TestOnePacketStore(t *testing.T) {
	storeOnly := regexp.MustCompile(`Stats\.\w+(\+\+| \+=)|EnqueuedAt = now|head\*2 >= len\(`)
	onlyIn(t, "../qdisc/queue.go", storeOnly, "qdisc", "abc", "explicit", "sched")
}

// TestOnePort guards the link models' shape the same way: offering a
// packet to a discipline, booking its sojourn, counting a delivery and the
// three packet events live in the file that defines netem.Port, so a link
// model file holds a service schedule. A fourth hand-written shell — the
// Wi-Fi AP's had no recorder hookup at all — fails here.
func TestOnePort(t *testing.T) {
	portOnly := regexp.MustCompile(`\.Q\.Enqueue\(|QueueDelay \+=|Ev(Enqueue|Dequeue|QdiscDrop)\b|delivered \+=`)
	onlyIn(t, "../netem/port.go", portOnly, "netem", "wifi")
}

// onlyIn fails for every match of re in a non-test file of the sibling
// packages pkgs other than home.
func onlyIn(t *testing.T, home string, re *regexp.Regexp, pkgs ...string) {
	t.Helper()
	var files []string
	for _, pkg := range pkgs {
		m, err := filepath.Glob("../" + pkg + "/*.go")
		if err != nil || len(m) == 0 {
			t.Fatalf("no source files found in %s: %v", pkg, err)
		}
		files = append(files, m...)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") || file == home {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAll(src, -1) {
			t.Errorf("%s has %q — only %s may", file, m, home)
		}
	}
}

// runProbed runs spec with probe reading the partial result every period,
// at a coordinator barrier like the run's own series: a test's window on
// state the Result does not keep.
func runProbed(t *testing.T, spec Spec, period sim.Time, probe func(now sim.Time, r *Result)) *Result {
	t.Helper()
	c, err := compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.g.Coordinator().Every(period, func(now sim.Time) { probe(now, c.res) })
	res, _, err := c.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// benchStyleMesh is the shape of bench/'s mesh workloads at n
// bottlenecks: pair k is joined by a rate bottleneck bot<k> and a
// zero-delay express wire exp<k>, hop<k> is the wire from pair k to pair
// k+1, and flow k crosses its own bottleneck and then wire hops a
// quarter of the way round the ring.
func benchStyleMesh(n int, dur sim.Time, shards int) Spec {
	spec := Spec{Seed: 1, Duration: dur, Warmup: dur / 4, RTT: 30 * sim.Millisecond, Shards: shards}
	node := func(i int) string { return fmt.Sprintf("j%d", i%(2*n)) }
	for j := 0; j < 2*n; j++ {
		spec.Nodes = append(spec.Nodes, node(j))
	}
	for k := 0; k < n; k++ {
		spec.Edges = append(spec.Edges,
			EdgeSpec{Name: fmt.Sprintf("bot%d", k), From: node(2 * k), To: node(2*k + 1),
				Link: LinkSpec{Rate: float64(9+k) * 1.137e6, Qdisc: QdiscSpec{Kind: "auto"}, Delay: sim.Time(4100+37*k) * sim.Microsecond}},
			EdgeSpec{Name: fmt.Sprintf("exp%d", k), From: node(2 * k), To: node(2*k + 1), Link: LinkSpec{Kind: "wire"}},
			EdgeSpec{Name: fmt.Sprintf("hop%d", k), From: node(2*k + 1), To: node(2*k + 2),
				Link: LinkSpec{Kind: "wire", Delay: sim.Time(8100+53*k) * sim.Microsecond}},
		)
	}
	for k := 0; k < n; k++ {
		scheme := "ABC"
		if k%2 == 1 {
			scheme = "Cubic"
		}
		path := []string{fmt.Sprintf("bot%d", k), fmt.Sprintf("hop%d", k)}
		for h := 1; h <= n/4; h++ {
			path = append(path, fmt.Sprintf("exp%d", (k+h)%n), fmt.Sprintf("hop%d", (k+h)%n))
		}
		spec.Flows = append(spec.Flows, FlowSpec{Scheme: scheme, Path: path})
	}
	return spec
}

// TestShardsHasNoEffect pins the Spec.Shards shim: bench/'s mesh_shard2
// runs mesh_seq's spec at Shards 2 and checks the two agree, so a
// bench-style mesh must execute the same events to the same result at
// Shards 0 and 2.
func TestShardsHasNoEffect(t *testing.T) {
	type run struct {
		digest string
		events uint64
	}
	do := func(shards int) run {
		res, _, err := Run(benchStyleMesh(8, 2*sim.Second, shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		type flow struct {
			Bytes, Lost, Retx            int64
			Tput, Mean, P95, QMean, QP95 float64
		}
		flows := make([]flow, len(res.Flows))
		for i := range res.Flows {
			f := &res.Flows[i]
			flows[i] = flow{f.Bytes, f.Lost, f.Retx, f.TputMbps, f.Delay.Mean(), f.Delay.P95(), f.QDelay.Mean(), f.QDelay.P95()}
		}
		d, _, err := goldenDigest(struct {
			Flows  []flow
			Ledger packet.Books
		}{flows, res.Ledger})
		if err != nil {
			t.Fatal(err)
		}
		return run{d, res.Graph.Coordinator().Shard(0).Executed()}
	}
	want := do(0)
	if want.events == 0 {
		t.Fatal("the mesh executed no events")
	}
	if got := do(2); got != want {
		t.Errorf("Shards 2: digest %s after %d events, want Shards 0's %s after %d", got.digest, got.events, want.digest, want.events)
	}
}

// TestRunEmptiesArena: every flow of a run draws its packets from the
// graph's arena, and when Run returns the arena is empty, so a Result,
// which keeps its graph, holds no more packets than its run left in
// flight.
func TestRunEmptiesArena(t *testing.T) {
	spec := benchStyleMesh(4, 2*sim.Second, 0)
	c, err := compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	arena := c.g.Arena()
	for _, f := range c.flows {
		*arena = packet.Arena{}
		f.ep.Tally.NewData(f.ep.Flow, 0, packet.MTU, 0)
		if reflect.ValueOf(*arena).IsZero() {
			t.Errorf("flow %d did not draw its packet from the graph's arena", f.ep.Flow)
		}
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.ValueOf(*res.Graph.Arena()).IsZero() {
		t.Error("the graph's arena holds packets after Run returned")
	}
}
