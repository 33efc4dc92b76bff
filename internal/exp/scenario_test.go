package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"abc/internal/app"
	"abc/internal/cc"
	"abc/internal/packet"
	"abc/internal/sim"
)

// TestScenarioRejectsUnknownKeys: a typo'd field name must fail loudly,
// never silently leave a default in place.
func TestScenarioRejectsUnknownKeys(t *testing.T) {
	cases := []string{
		`{"name":"x","durations_s":10}`,
		`{"links":[{"kind":"rate","rate_mbp":8}]}`,
		`{"edges":[{"name":"e","form":"a","to":"b"}]}`,
		`{"flows":[{"scheme":"ABC","paths":["e"]}]}`,
	}
	for _, c := range cases {
		if _, err := ParseScenario([]byte(c)); err == nil ||
			!strings.Contains(err.Error(), "unknown field") {
			t.Errorf("ParseScenario(%s) = %v, want unknown-field error", c, err)
		}
	}
}

// TestScenarioFilesRoundTrip: every example scenario must survive a
// parse → marshal → parse cycle structurally unchanged and still compile
// to the same Spec shape — the declarative files are the stable contract
// the fuzz corpus seeds from.
func TestScenarioFilesRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, path := range paths {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: marshal: %v", path, err)
		}
		sc2, err := ParseScenario(out)
		if err != nil {
			t.Fatalf("%s: re-parse of own marshal: %v", path, err)
		}
		// The load directory is process state, not scenario content; carry
		// it over so relative file references still resolve.
		sc2.dir = sc.dir
		if !reflect.DeepEqual(sc, sc2) {
			t.Errorf("%s: round trip changed the scenario:\n%+v\n%+v", path, sc, sc2)
		}
		if _, err := sc2.Compile(); err != nil {
			t.Errorf("%s: round-tripped scenario no longer compiles: %v", path, err)
		}
	}
}

// TestScenarioMeshFieldValidation covers the mesh-specific compile
// errors: mixing chain routing fields with mesh paths is rejected at the
// scenario layer, and wire edges cannot carry bottleneck configuration.
func TestScenarioMeshFieldValidation(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"path with dir",
			`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"rate","rate_mbps":8}],
			  "flows":[{"scheme":"ABC","path":["e"],"dir":"reverse"}]}`,
			"chain fields"},
		{"path with enter_at",
			`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"rate","rate_mbps":8}],
			  "flows":[{"scheme":"ABC","path":["e"],"enter_at":1}]}`,
			"chain fields"},
		{"wire with rate",
			`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"wire","rate_mbps":8}],
			  "flows":[{"scheme":"ABC","path":["e"]}]}`,
			"no bottleneck"},
		{"wire with qdisc",
			`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"wire","qdisc":{"kind":"droptail"}}],
			  "flows":[{"scheme":"ABC","path":["e"]}]}`,
			"no qdisc"},
		{"wire on chain link",
			`{"links":[{"kind":"wire","delay_ms":5}],"flows":[{"scheme":"ABC"}]}`,
			"mesh edge kind"},
		// A period that is positive as a float and 0 ns on the clock used to
		// panic inside Compile (trace.Steps dividing by it).
		{"step_ms rounds to 0 ns",
			`{"links":[{"steps_mbps":[8,4],"step_ms":1e-9}],"flows":[{"scheme":"ABC"}]}`,
			"step_ms must be at least 1 ns"},
		{"square_half_ms rounds to 0 ns",
			`{"links":[{"square_high_mbps":8,"square_low_mbps":4,"square_half_ms":1e-9}],"flows":[{"scheme":"ABC"}]}`,
			"square_half_ms must be at least 1 ns"},
		{"synthetic trace of a gigabyte",
			`{"links":[{"steps_mbps":[1e6],"step_ms":1e6}],"flows":[{"scheme":"ABC"}]}`,
			"one loop of the trace at most"},
		// Silent acceptances: each of these ran, as something else.
		{"loss above one", `{"links":[{"rate_mbps":8,"loss":7}],"flows":[{"scheme":"ABC"}]}`, "not a probability"},
		{"negative loss", `{"links":[{"rate_mbps":8,"loss":-1}],"flows":[{"scheme":"ABC"}]}`, "not a probability"},
		{"negative delay_ms", `{"links":[{"rate_mbps":8,"delay_ms":-5}],"flows":[{"scheme":"ABC"}]}`, "negative Delay"},
		{"negative buffer", `{"links":[{"rate_mbps":8,"qdisc":{"buffer":-4}}],"flows":[{"scheme":"ABC"}]}`, "negative Qdisc.Buffer"},
		{"duration past the clock", `{"duration_s":1e300,"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC"}]}`, "does not fit the clock"},
		// Errors Run always raised and Compile did not.
		{"lie on droptail", `{"links":[{"rate_mbps":8,"qdisc":{"kind":"droptail","lie":0.3}}],"flows":[{"scheme":"ABC"}]}`, `kind "droptail" takes no configuration`},
		{"dt_ms on droptail", `{"links":[{"rate_mbps":8,"qdisc":{"kind":"droptail","dt_ms":50}}],"flows":[{"scheme":"ABC"}]}`, `kind "droptail" takes no configuration`},
		{"dt_ms on xcp", `{"links":[{"rate_mbps":8,"qdisc":{"kind":"xcp","dt_ms":50}}],"flows":[{"scheme":"XCP"}]}`, `kind "xcp" takes no configuration`},
		{"lie on the proxied router", `{"links":[{"rate_mbps":8,"qdisc":{"kind":"abc-proxied","lie":0.3}}],"flows":[{"scheme":"ABC-proxied"}]}`, "cannot lie"},
		{"background on wifi", `{"links":[{"kind":"wifi"}],"flows":[{"scheme":"ABC"}],
			"background":[{"edge":"fwd0","kind":"const","rate_mbps":1}]}`, "cannot host a fluid background"},
		{"enter_at out of range", `{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC","enter_at":3}]}`, "EnterAt 3 out of range"},
		{"kfailover without a backup",
			`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"rate","rate_mbps":8}],
			  "flows":[{"scheme":"ABC","path":["e"]}],"routing":{"policy":"kfailover"}}`,
			"no edge-disjoint backup path"},
	}
	for _, tc := range cases {
		sc, err := ParseScenario([]byte(tc.in))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if _, err := sc.Compile(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Compile() err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestScenarioBackgroundClause covers the background clause's
// compile-time contract: every bad form — unknown kind, non-positive
// rate, unknown or duplicate edge, malformed schedule — is a loud
// Compile error naming the entry, and the valid forms lower to
// BackgroundSpec entries.
func TestScenarioBackgroundClause(t *testing.T) {
	chain := func(bg string) string {
		return `{"duration_s":5,"links":[{"kind":"rate","rate_mbps":60}],
			"flows":[{"scheme":"ABC"}],"background":` + bg + `}`
	}
	bad := []struct {
		name, in, want string
	}{
		{"unknown kind", chain(`[{"edge":"fwd0","kind":"poisson","rate_mbps":1}]`), "unknown aggregate kind"},
		{"negative rate", chain(`[{"edge":"fwd0","kind":"const","rate_mbps":-4}]`), "positive rate"},
		{"zero rate", chain(`[{"edge":"fwd0","kind":"onoff","on_s":1,"off_s":1}]`), "positive rate"},
		{"unknown edge", chain(`[{"edge":"uplink9","kind":"aimd","flows":100}]`), `unknown edge "uplink9"`},
		{"reverse edge without reverse links", chain(`[{"edge":"rev0","kind":"const","rate_mbps":1}]`), `unknown edge "rev0"`},
		{"missing edge", chain(`[{"kind":"const","rate_mbps":1}]`), "missing edge"},
		{"duplicate edge", chain(`[{"edge":"fwd0","kind":"const","rate_mbps":1},{"edge":"fwd0","kind":"const","rate_mbps":2}]`), "already carries"},
		{"aimd with rate", chain(`[{"edge":"fwd0","kind":"aimd","flows":10,"rate_mbps":5}]`), "rate must be unset"},
		{"aimd without flows", chain(`[{"edge":"fwd0","kind":"aimd"}]`), "positive flow count"},
		{"negative start", chain(`[{"edge":"fwd0","kind":"const","rate_mbps":1,"start_s":-1}]`), "non-negative"},
		{"stop before start", chain(`[{"edge":"fwd0","kind":"const","rate_mbps":1,"start_s":3,"stop_s":1}]`), "not after start"},
		{"negative step_ms", chain(`[{"edge":"fwd0","kind":"const","rate_mbps":1,"step_ms":-5}]`), "background 0: negative Step"},
		{"negative rtt_ms", chain(`[{"edge":"fwd0","kind":"aimd","flows":10,"rtt_ms":-80}]`), "background 0: negative RTT"},
		{"negative flows", chain(`[{"edge":"fwd0","kind":"const","flows":-3,"rate_mbps":1}]`), "background 0: negative Flows"},
	}
	for _, tc := range bad {
		sc, err := ParseScenario([]byte(tc.in))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if _, err := sc.Compile(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Compile() err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	sc, err := ParseScenario([]byte(chain(
		`[{"edge":"fwd0","kind":"onoff","flows":1000000,"rate_mbps":48,"on_s":6,"off_s":4,"ramp_s":2,"rtt_ms":80}]`)))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Compile()
	if err != nil {
		t.Fatalf("valid background clause rejected: %v", err)
	}
	if len(spec.Background) != 1 {
		t.Fatalf("got %d background entries, want 1", len(spec.Background))
	}
	bs := spec.Background[0]
	if bs.Edge != "fwd0" || bs.Kind != "onoff" || bs.Flows != 1_000_000 ||
		bs.RateMbps != 48 || bs.On != 6*sim.Second || bs.Off != 4*sim.Second ||
		bs.Ramp != 2*sim.Second || bs.RTT != 80*sim.Millisecond {
		t.Fatalf("background clause lowered incorrectly: %+v", bs)
	}
	// And the compiled scenario actually runs with the aggregate live.
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Backgrounds) != 1 || res.Backgrounds[0].ServedMB <= 0 {
		t.Fatalf("scenario background never served: %+v", res.Backgrounds)
	}
}

// FuzzScenarioJSON throws arbitrary bytes at the scenario parser and
// compiler, and runs what they accept: neither may panic, anything the
// parser accepts must marshal back to JSON the parser accepts again (the
// round-trip contract the example files rely on), and anything Compile
// accepts must — when small enough to run in a fuzz iteration — execute
// 100 ms of simulated time without a panic, a mid-run wiring error, an
// event-budget overrun or packet books that do not balance (Run's
// audit): at one shard whatever the input asks for, and again at two
// whenever Check accepts it there. The seed corpus (testdata/fuzz)
// includes every example scenario plus malformed fragments.
func FuzzScenarioJSON(f *testing.F) {
	paths, _ := filepath.Glob("../../examples/scenarios/*.json")
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","links":[{"kind":"rate","rate_mbps":-1}]}`))
	f.Add([]byte(`{"nodes":["a"],"edges":[{"name":"e","from":"a","to":"a","kind":"wire"}]}`))
	f.Add([]byte(`{"flows":[{"scheme":"nope"}]}`))
	f.Add([]byte(`{"links":[{"trace":"NoSuchTrace"}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":1}],"flows":[{"scheme":"Cubic","source":{"kind":"onoff","on_s":1,"off_s":1}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":1}],"flows":[{"scheme":"Cubic","source":{"kind":"warp"}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":1}],"flows":[{"scheme":"ABC","app":{"kind":"abr","ladder_kbps":[300]}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":1}],"flows":[{"scheme":"ABC","app":{"kind":"rpc","resp_kb":10,"think_ms":50}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":1}],"workloads":[{"scheme":"Cubic","per_s":1,"size":{"kind":"fixed","kb":10}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":1}],"workloads":[{"scheme":"Cubic","arrival":"deterministic","per_s":-2,"size":{"kind":"pareto","min_kb":1,"max_kb":0}}]}`))
	f.Add([]byte(`{"workloads":[{"scheme":"Cubic","per_s":1,"size":{"kind":"choice","sizes_kb":[1,2],"weights":[1]}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC"}],"events":[{"at_s":1,"kind":"link_down","edge":"fwd0"},{"at_s":2,"kind":"link_up","edge":"fwd0"}]}`))
	f.Add([]byte(`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"rate","rate_mbps":8}],"flows":[{"scheme":"ABC","path":["e"]}],"events":[{"at_s":1,"kind":"reroute","flow":0,"ack":true,"path":["e"]}]}`))
	f.Add([]byte(`{"events":[{"at_s":-3,"kind":"teleport","edge":"","rate_mbps":-1}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"workloads":[{"scheme":"Cubic","arrival":{"kind":"replay","file":"no-such.csv"}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"workloads":[{"scheme":"Cubic","arrival":{"kind":"replay"},"per_s":1}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC","app":{"kind":"abr","policy":"rate","history_chunks":3,"safety":0.85}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC","app":{"kind":"abr","policy":"warp"}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC"}],"sample_ms":-5}`))
	f.Add([]byte(`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"rate","rate_mbps":8}],"flows":[{"scheme":"ABC","path":["e"]}],"routing":{"policy":"kfailover","k":1,"recompute_ms":20,"drain_ms":50,"flows":[0]}}`))
	f.Add([]byte(`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"rate","rate_mbps":8}],"flows":[{"scheme":"ABC","path":["e"]}],"routing":{"policy":"shortest","k":3}}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC"}],"routing":{"policy":"rip","recompute_ms":-1,"drain_ms":-1,"flows":[9,9]}}`))
	f.Add([]byte(`{"links":[{"rate_mbps":60}],"flows":[{"scheme":"ABC"}],"background":[{"edge":"fwd0","kind":"const","flows":1000000,"rate_mbps":48,"ramp_s":2}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":60}],"flows":[{"scheme":"ABC"}],"background":[{"edge":"fwd0","kind":"poisson","rate_mbps":1}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":60}],"flows":[{"scheme":"ABC"}],"background":[{"edge":"fwd0","kind":"const","rate_mbps":-4}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":60}],"flows":[{"scheme":"ABC"}],"background":[{"edge":"uplink9","kind":"aimd","flows":100}]}`))
	// What used to panic, hang or run as something else (all must-reject),
	// and a k-failover mesh that does have its backup (must run).
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC","start_s":-1}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"workloads":[{"scheme":"Cubic","per_s":1,"start_s":-1,"size":{"kind":"fixed","kb":10}}]}`))
	f.Add([]byte(`{"links":[{"steps_mbps":[8,4],"step_ms":1e-9}],"flows":[{"scheme":"ABC"}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"workloads":[{"scheme":"Cubic","per_s":1e12,"size":{"kind":"fixed","kb":10}}]}`))
	f.Add([]byte(`{"nodes":["a","b","c"],"edges":[{"name":"e1","from":"a","to":"b","kind":"rate","rate_mbps":8},{"name":"e2","from":"b","to":"c","kind":"rate","rate_mbps":8},{"name":"e3","from":"a","to":"c","kind":"rate","rate_mbps":8}],"flows":[{"scheme":"ABC","path":["e1","e2"]}],"events":[{"at_s":0.02,"kind":"link_down","edge":"e1"}],"routing":{"policy":"kfailover","k":1,"flows":[0]}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		spec, err := sc.Compile()
		if err != nil {
			return
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		if _, err := ParseScenario(out); err != nil {
			t.Fatalf("marshal of accepted scenario re-parses with error: %v", err)
		}
		if len(data) > 4<<10 || len(spec.Flows) > 8 || len(spec.Workloads) > 4 ||
			len(spec.Links)+len(spec.ReverseLinks)+len(spec.Edges) > 16 || spec.Shards > 4 {
			return
		}
		spec.Duration = 100 * sim.Millisecond
		for _, shards := range []int{1, 2} {
			spec.Shards = shards
			if shards > 1 && Check(spec) != nil {
				continue
			}
			c, err := compile(spec, nil)
			if err != nil {
				t.Fatalf("a scenario Compile accepted does not build at 100 ms and %d shard(s): %v", shards, err)
			}
			for i, coord := 0, c.g.Coordinator(); i < coord.Shards(); i++ {
				coord.Shard(i).SetEventLimit(3e6)
			}
			if _, _, err := c.run(); err != nil {
				t.Fatalf("a scenario Compile accepted failed mid-run at %d shard(s): %v", shards, err)
			}
		}
	})
}

// TestScenarioSourceClauses covers the explicit source clause: every
// kind compiles to the right cc.Source, and malformed clauses fail with
// a Spec error naming the flow.
func TestScenarioSourceClauses(t *testing.T) {
	compile := func(flow string) (Spec, error) {
		sc, err := ParseScenario([]byte(`{
			"duration_s": 5,
			"links": [{"kind": "rate", "rate_mbps": 10}],
			"flows": [` + flow + `]
		}`))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return sc.Compile()
	}

	spec, err := compile(`{"scheme": "Cubic", "source": {"kind": "backlogged"}}`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Flows[0].Source != nil {
		t.Error("backlogged source should compile to nil (the backlogged default)")
	}

	spec, err = compile(`{"scheme": "Cubic", "source": {"kind": "rate", "mbps": 2}}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := spec.Flows[0].Source.(*cc.RateLimited); !ok {
		t.Errorf("rate source compiled to %T", spec.Flows[0].Source)
	}

	spec, err = compile(`{"scheme": "Cubic", "source": {"kind": "onoff", "on_s": 1, "off_s": 2, "start_s": 3}}`)
	if err != nil {
		t.Fatal(err)
	}
	oo, ok := spec.Flows[0].Source.(*cc.OnOff)
	if !ok {
		t.Fatalf("onoff source compiled to %T", spec.Flows[0].Source)
	}
	if oo.OnFor != sim.Second || oo.OffFor != 2*sim.Second || oo.Start != 3*sim.Second {
		t.Errorf("onoff parameters wrong: %+v", oo)
	}

	spec, err = compile(`{"scheme": "Cubic", "source": {"kind": "fixed", "bytes": 100000}}`)
	if err != nil {
		t.Fatal(err)
	}
	fx, ok := spec.Flows[0].Source.(*cc.Fixed)
	if !ok {
		t.Fatalf("fixed source compiled to %T", spec.Flows[0].Source)
	}
	if fx.Remaining != 100000 {
		t.Errorf("fixed source has %d bytes, want 100000", fx.Remaining)
	}

	bad := []struct{ name, flow string }{
		{"unknown kind", `{"scheme": "Cubic", "source": {"kind": "warp"}}`},
		{"rate without mbps", `{"scheme": "Cubic", "source": {"kind": "rate"}}`},
		{"onoff without on_s", `{"scheme": "Cubic", "source": {"kind": "onoff", "off_s": 1}}`},
		{"fixed without bytes", `{"scheme": "Cubic", "source": {"kind": "fixed"}}`},
		{"backlogged with params", `{"scheme": "Cubic", "source": {"kind": "backlogged", "mbps": 1}}`},
		{"source plus rate_mbps", `{"scheme": "Cubic", "rate_mbps": 1, "source": {"kind": "fixed", "bytes": 1}}`},
		{"app plus source", `{"scheme": "Cubic", "source": {"kind": "fixed", "bytes": 1}, "app": {"kind": "rpc"}}`},
		{"unknown app kind", `{"scheme": "Cubic", "app": {"kind": "quic"}}`},
		{"abr fields on rpc", `{"scheme": "Cubic", "app": {"kind": "rpc", "chunk_s": 2}}`},
		{"rpc fields on abr", `{"scheme": "Cubic", "app": {"kind": "abr", "think_ms": 10}}`},
		{"abr nonpositive ladder rung", `{"scheme": "Cubic", "app": {"kind": "abr", "ladder_kbps": [-300, 100]}}`},
		{"abr non-ascending ladder", `{"scheme": "Cubic", "app": {"kind": "abr", "ladder_kbps": [300, 300]}}`},
		{"rpc negative think_ms", `{"scheme": "Cubic", "app": {"kind": "rpc", "think_ms": -200}}`},
		{"negative start_s", `{"scheme": "Cubic", "start_s": -1}`},
		{"stop_s before start_s", `{"scheme": "Cubic", "start_s": 3, "stop_s": 2}`},
		{"negative rate_mbps", `{"scheme": "Cubic", "rate_mbps": -3}`},
		{"abr negative chunk_s", `{"scheme": "Cubic", "app": {"kind": "abr", "chunk_s": -2}}`},
	}
	for _, tc := range bad {
		if _, err := compile(tc.flow); err == nil {
			t.Errorf("%s: compiled without error", tc.name)
		}
	}
}

// TestScenarioWorkloadClauses covers the workload block: a well-formed
// clause compiles to a WorkloadSpec, malformed clauses fail loudly.
func TestScenarioWorkloadClauses(t *testing.T) {
	compile := func(workload string) (Spec, error) {
		sc, err := ParseScenario([]byte(`{
			"duration_s": 5,
			"links": [{"kind": "rate", "rate_mbps": 10}],
			"flows": [{"scheme": "Cubic"}],
			"workloads": [` + workload + `]
		}`))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return sc.Compile()
	}

	spec, err := compile(`{"scheme": "ABC", "class": "web", "per_s": 2,
		"size": {"kind": "pareto", "min_kb": 10, "max_kb": 500, "alpha": 1.3},
		"stop_s": 4, "max_active": 9, "ref_mbps": 8}`)
	if err != nil {
		t.Fatal(err)
	}
	ws := spec.Workloads[0]
	if ws.Scheme != "ABC" || ws.Class != "web" || ws.MaxActive != 9 || ws.RefMbps != 8 {
		t.Errorf("workload fields wrong: %+v", ws)
	}
	if _, ok := ws.Arrival.(app.Poisson); !ok {
		t.Errorf("default arrival compiled to %T, want Poisson", ws.Arrival)
	}
	if bp, ok := ws.Sizes.(app.BoundedPareto); !ok || bp.Alpha != 1.3 {
		t.Errorf("pareto size compiled to %#v", ws.Sizes)
	}

	// Absent alpha resolves to the documented 1.2 default at compile
	// time, never silently at draw time.
	spec2, err := compile(`{"scheme": "Cubic", "per_s": 1,
		"size": {"kind": "pareto", "min_kb": 1, "max_kb": 10}}`)
	if err != nil {
		t.Fatal(err)
	}
	if bp := spec2.Workloads[0].Sizes.(app.BoundedPareto); bp.Alpha != 1.2 {
		t.Errorf("absent alpha compiled to %v, want the 1.2 default", bp.Alpha)
	}

	spec, err = compile(`{"scheme": "Cubic", "arrival": "deterministic", "per_s": 4,
		"size": {"kind": "choice", "sizes_kb": [10, 100], "weights": [3, 1]}}`)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := spec.Workloads[0].Arrival.(app.Deterministic); !ok || d.Gap != 250*sim.Millisecond {
		t.Errorf("deterministic arrival compiled to %#v", spec.Workloads[0].Arrival)
	}

	bad := []struct{ name, workload string }{
		{"unknown scheme", `{"scheme": "nope", "per_s": 1, "size": {"kind": "fixed", "kb": 1}}`},
		{"missing per_s", `{"scheme": "Cubic", "size": {"kind": "fixed", "kb": 1}}`},
		{"unknown arrival", `{"scheme": "Cubic", "arrival": "bursty", "per_s": 1, "size": {"kind": "fixed", "kb": 1}}`},
		{"unknown size kind", `{"scheme": "Cubic", "per_s": 1, "size": {"kind": "zipf"}}`},
		{"fixed size without kb", `{"scheme": "Cubic", "per_s": 1, "size": {"kind": "fixed"}}`},
		{"pareto bad range", `{"scheme": "Cubic", "per_s": 1, "size": {"kind": "pareto", "min_kb": 10, "max_kb": 5}}`},
		{"pareto negative alpha", `{"scheme": "Cubic", "per_s": 1, "size": {"kind": "pareto", "min_kb": 1, "max_kb": 10, "alpha": -1.2}}`},
		{"choice weight mismatch", `{"scheme": "Cubic", "per_s": 1, "size": {"kind": "choice", "sizes_kb": [1, 2], "weights": [1]}}`},
		{"choice negative weight", `{"scheme": "Cubic", "per_s": 1, "size": {"kind": "choice", "sizes_kb": [1, 2], "weights": [3, -1]}}`},
		{"choice zero-sum weights", `{"scheme": "Cubic", "per_s": 1, "size": {"kind": "choice", "sizes_kb": [1, 2], "weights": [0, 0]}}`},
		{"choice nonpositive size", `{"scheme": "Cubic", "per_s": 1, "size": {"kind": "choice", "sizes_kb": [0]}}`},
		{"unknown dir", `{"scheme": "Cubic", "per_s": 1, "dir": "sideways", "size": {"kind": "fixed", "kb": 1}}`},
		{"mesh path on chain", `{"scheme": "Cubic", "per_s": 1, "path": ["x"], "size": {"kind": "fixed", "kb": 1}}`},
		{"negative start_s", `{"scheme": "Cubic", "per_s": 1, "start_s": -1, "size": {"kind": "fixed", "kb": 1}}`},
		{"negative ref_mbps", `{"scheme": "Cubic", "per_s": 1, "ref_mbps": -9, "size": {"kind": "fixed", "kb": 1}}`},
		{"poisson flood", `{"scheme": "Cubic", "per_s": 1e12, "size": {"kind": "fixed", "kb": 1}}`},
		{"deterministic flood", `{"scheme": "Cubic", "arrival": "deterministic", "per_s": 1e12, "size": {"kind": "fixed", "kb": 1}}`},
	}
	for _, tc := range bad {
		// A flood that compiled would hang the run, so rejection has a deadline.
		err := within(t, 5*time.Second, func() error { _, err := compile(tc.workload); return err })
		if err == nil {
			t.Errorf("%s: compiled without error", tc.name)
		}
	}
}

// TestScenarioEventClauses covers the events block: shape errors are
// compile errors, deep errors (unknown edges, malformed routes) surface
// from Run, and a well-formed timeline executes.
func TestScenarioEventClauses(t *testing.T) {
	compileRun := func(events string) error {
		sc, err := ParseScenario([]byte(`{
			"seed": 1, "duration_s": 2,
			"nodes": ["a", "b"],
			"edges": [
				{"name": "e1", "from": "a", "to": "b", "kind": "rate", "rate_mbps": 8,
				 "qdisc": {"kind": "droptail"}, "delay_ms": 2},
				{"name": "e2", "from": "a", "to": "b", "kind": "wire", "delay_ms": 5}
			],
			"flows": [{"scheme": "Cubic", "path": ["e1"]}],
			"events": [` + events + `]
		}`))
		if err != nil {
			return err
		}
		spec, err := sc.Compile()
		if err != nil {
			return err
		}
		_, _, err = Run(spec)
		return err
	}
	good := `{"at_s": 0.5, "kind": "set_rate", "edge": "e1", "rate_mbps": 4},
		{"at_s": 0.7, "kind": "set_delay", "edge": "e1", "delay_ms": 10},
		{"at_s": 0.9, "kind": "link_down", "edge": "e1"},
		{"at_s": 1.0, "kind": "link_up", "edge": "e1"},
		{"at_s": 1.2, "kind": "reroute", "flow": 0, "path": ["e2"]}`
	if err := compileRun(good); err != nil {
		t.Fatalf("well-formed timeline failed: %v", err)
	}
	bad := []struct{ name, in string }{
		{"unknown kind", `{"at_s": 1, "kind": "teleport"}`},
		{"negative time", `{"at_s": -1, "kind": "link_up", "edge": "e1"}`},
		{"unknown edge", `{"at_s": 1, "kind": "link_down", "edge": "zz"}`},
		{"unknown path edge", `{"at_s": 1, "kind": "reroute", "flow": 0, "path": ["zz"]}`},
		{"set_rate on wire", `{"at_s": 1, "kind": "set_rate", "edge": "e2", "rate_mbps": 2}`},
		{"reroute bad flow", `{"at_s": 1, "kind": "reroute", "flow": 5, "path": ["e2"]}`},
	}
	for _, tc := range bad {
		if err := compileRun(tc.in); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestScenarioReplayWorkload: the replay arrival clause spawns exactly
// the logged flows with the logged sizes.
func TestScenarioReplayWorkload(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "arrivals.csv")
	entries := []struct {
		atS   float64
		bytes int
	}{{0.2, 30000}, {0.9, 4500}, {1.7, 120000}, {2.4, 1500}}
	var sb strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&sb, "%.3f,%d\n", e.atS, e.bytes)
	}
	if err := os.WriteFile(log, []byte(sb.String()), 0644); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseScenario([]byte(`{
		"seed": 1, "duration_s": 10, "warmup_s": 0.001,
		"links": [{"kind": "rate", "rate_mbps": 20}],
		"workloads": [{"scheme": "Cubic",
			"arrival": {"kind": "replay", "file": "` + log + `"}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &res.Workloads[0]
	if w.Spawned != len(entries) || w.Completed != len(entries) {
		t.Fatalf("spawned %d / completed %d, want %d", w.Spawned, w.Completed, len(entries))
	}
	// Deliveries are MTU-quantized: each logged size rounds up to whole
	// packets, and nothing else may arrive.
	var want int64
	for _, e := range entries {
		want += int64((e.bytes + packet.MTU - 1) / packet.MTU * packet.MTU)
	}
	if w.Bytes != want {
		t.Fatalf("delivered %d bytes, want %d (MTU-rounded log sizes)", w.Bytes, want)
	}

	bad := []struct{ name, workload string }{
		{"replay with per_s", `{"scheme": "Cubic", "per_s": 2, "arrival": {"kind": "replay", "file": "` + log + `"}}`},
		{"replay with size", `{"scheme": "Cubic", "arrival": {"kind": "replay", "file": "` + log + `"},
			"size": {"kind": "fixed", "kb": 1}}`},
		{"replay without file", `{"scheme": "Cubic", "arrival": {"kind": "replay"}}`},
		{"file on poisson", `{"scheme": "Cubic", "per_s": 1, "arrival": {"kind": "poisson", "file": "x"},
			"size": {"kind": "fixed", "kb": 1}}`},
		{"missing log", `{"scheme": "Cubic", "arrival": {"kind": "replay", "file": "` + log + `.nope"}}`},
	}
	for _, tc := range bad {
		sc, err := ParseScenario([]byte(`{
			"duration_s": 5,
			"links": [{"kind": "rate", "rate_mbps": 10}],
			"workloads": [` + tc.workload + `]
		}`))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if _, err := sc.Compile(); err == nil {
			t.Errorf("%s: compiled without error", tc.name)
		}
	}
}

// TestScenarioABRPolicyClause: the abr policy fields compile through to
// the app config and malformed combinations fail.
func TestScenarioABRPolicyClause(t *testing.T) {
	compile := func(app string) (Spec, error) {
		sc, err := ParseScenario([]byte(`{
			"duration_s": 5,
			"links": [{"kind": "rate", "rate_mbps": 10}],
			"flows": [{"scheme": "ABC", "app": ` + app + `}]
		}`))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return sc.Compile()
	}
	spec, err := compile(`{"kind": "abr", "policy": "rate", "history_chunks": 8, "safety": 0.8}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Flows[0].App.ABR
	if cfg.Policy != "rate" || cfg.HistoryChunks != 8 || cfg.SafetyFactor != 0.8 {
		t.Fatalf("abr config = %+v", cfg)
	}
	bad := []struct{ name, app string }{
		{"unknown policy", `{"kind": "abr", "policy": "oracle"}`},
		{"history on buffer policy", `{"kind": "abr", "history_chunks": 4}`},
		{"policy on rpc", `{"kind": "rpc", "policy": "rate"}`},
		{"negative safety", `{"kind": "abr", "policy": "rate", "safety": -1}`},
	}
	for _, tc := range bad {
		if _, err := compile(tc.app); err == nil {
			t.Errorf("%s: compiled without error", tc.name)
		}
	}
}

// TestScenarioWorkloadRuns: a declarative scenario with a workload block
// runs end to end and reports completions.
func TestScenarioWorkloadRuns(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
		"seed": 1, "duration_s": 10, "warmup_s": 1,
		"links": [{"kind": "rate", "rate_mbps": 10}],
		"workloads": [{"scheme": "Cubic", "arrival": "deterministic", "per_s": 1,
			"size": {"kind": "fixed", "kb": 50}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads[0].Completed == 0 {
		t.Error("declarative workload completed no flows")
	}
}
