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

	"abc/internal/abc"
	"abc/internal/app"
	"abc/internal/cc"
	"abc/internal/packet"
	"abc/internal/sim"
	"abc/internal/trace"
)

// checkScenario parses in and checks its Spec: a file is valid iff both
// accept it.
func checkScenario(in string) (Spec, error) {
	sc, err := parseScenario([]byte(in))
	if err != nil {
		return Spec{}, err
	}
	return sc.Spec, Check(sc.Spec)
}

// TestScenarioRejectsUnknownKeys: a typo'd field name must fail loudly,
// never silently leave a default in place.
func TestScenarioRejectsUnknownKeys(t *testing.T) {
	cases := []string{
		`{"name":"x","durations_s":10}`,
		`{"links":[{"kind":"rate","rate_mbp":8}]}`,
		`{"edges":[{"name":"e","form":"a","to":"b"}]}`,
		`{"flows":[{"scheme":"ABC","paths":["e"]}]}`,
		`{"flows":[{"scheme":"ABC","rate_mbps":1}]}`,
		`{"workloads":[{"scheme":"ABC","arrival":{"kind":"replay","file":"x","per_s":1}}]}`,
		`{"links":[{"qdisc":{"kind":"abc","dt":5}}]}`,
	}
	for _, c := range cases {
		if _, err := parseScenario([]byte(c)); err == nil ||
			!strings.Contains(err.Error(), "unknown field") {
			t.Errorf("parseScenario(%s) = %v, want unknown-field error", c, err)
		}
	}
}

// TestScenarioFilesRoundTrip: every example file decodes into a Spec that
// encodes back to itself — parseScenario of its JSON deep-equals it — and
// checks.
func TestScenarioFilesRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) < 18 {
		t.Fatalf("found %d example scenarios, want 18: %v", len(paths), err)
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
		sc2, err := parseScenario(out)
		if err != nil {
			t.Fatalf("%s: re-parse of own marshal: %v", path, err)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Errorf("%s: round trip changed the scenario:\n%s", path, out)
		}
		if err := Check(sc2.Spec); err != nil {
			t.Errorf("%s: round-tripped scenario no longer checks: %v", path, err)
		}
	}
}

// TestScenarioUnits: each suffix lands on the Go unit, on the nanosecond
// the scenario compiler always chose, and encodes back to the same number.
func TestScenarioUnits(t *testing.T) {
	sc, err := parseScenario([]byte(`{"rtt_ms": 6.1, "duration_s": 22.5,
		"links": [{"rate_mbps": 21.7, "qdisc": {"kind": "abc", "dt_ms": 1.7}}],
		"workloads": [{"scheme": "ABC", "arrival": {"kind": "deterministic", "gap_ms": 250},
			"size": {"kind": "pareto", "min_kb": 10, "max_kb": 1024}}],
		"background": [{"edge": "fwd0", "kind": "const", "rate_mbps": 48}]}`))
	if err != nil {
		t.Fatal(err)
	}
	s := sc.Spec
	rtt, dur, rate, dt := 6.1, 22.5, 21.7, 1.7 // variables: the decoder's arithmetic is the run-time one
	if s.RTT != sim.FromSeconds(rtt/1000) || s.Duration != sim.FromSeconds(dur) || s.Links[0].Rate != rate*1e6 ||
		s.Links[0].Qdisc.ABCConfig.DelayThreshold != sim.FromSeconds(dt/1000) || s.Background[0].RateMbps != 48 {
		t.Errorf("units decoded wrong: %+v", s)
	}
	if a := s.Workloads[0].Arrival.(app.Deterministic); a.Gap != 250*sim.Millisecond {
		t.Errorf("gap_ms decoded to %v", a.Gap)
	}
	if bp := s.Workloads[0].Sizes.(app.BoundedPareto); bp.Min != 10*1024 || bp.Max != 1024*1024 || bp.Alpha != 0 {
		t.Errorf("pareto decoded to %+v (a zero alpha takes the 1.2 default when drawn)", bp)
	}
	out, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rtt_ms":6.1`, `"duration_s":22.5`, `"rate_mbps":21.7`, `"dt_ms":1.7`, `"gap_ms":250`, `"min_kb":10`, `"rate_mbps":48`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("encoding %s lacks %s", out, want)
		}
	}
}

// TestScenarioEncodeRefusesWhatItCannotSay: a field the file has no key
// for, and a trace no generator made, fail to encode instead of dropping
// out of the file.
func TestScenarioEncodeRefusesWhatItCannotSay(t *testing.T) {
	cfg := abc.DefaultRouterConfig()
	for _, sc := range []*Scenario{
		{Spec: Spec{Links: []LinkSpec{{Rate: 8e6, Qdisc: QdiscSpec{Kind: "abc", ABCConfig: &cfg}}}}},
		{Spec: Spec{Links: []LinkSpec{{Trace: trace.Constant("c", 8e6)}}}},
	} {
		if _, err := json.Marshal(sc); err == nil {
			t.Errorf("encoded %+v", sc.Spec.Links[0])
		}
	}
}

// TestScenarioMeshFieldValidation covers the mesh-specific errors: mixing
// chain routing fields with mesh paths, and wire edges carrying
// bottleneck configuration.
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
		{"wire with lookahead",
			`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"wire","lookahead_ms":8}],
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
		// panic (trace.Steps dividing by it).
		{"step_ms rounds to 0 ns",
			`{"links":[{"steps_mbps":[8,4],"step_ms":1e-9}],"flows":[{"scheme":"ABC"}]}`,
			"step_ms must be at least 1 ns"},
		{"square_half_ms rounds to 0 ns",
			`{"links":[{"square_high_mbps":8,"square_low_mbps":4,"square_half_ms":1e-9}],"flows":[{"scheme":"ABC"}]}`,
			"square_half_ms must be at least 1 ns"},
		{"synthetic trace of a gigabyte",
			`{"links":[{"steps_mbps":[1e6],"step_ms":1e6}],"flows":[{"scheme":"ABC"}]}`,
			"one loop of the trace at most"},
		{"two trace generators",
			`{"links":[{"trace":"Verizon1","steps_mbps":[8],"step_ms":5}],"flows":[{"scheme":"ABC"}]}`,
			"one generator"},
		{"rate on a trace link", `{"links":[{"trace":"Verizon1","rate_mbps":8}],"flows":[{"scheme":"ABC"}]}`, "one model"},
		{"zero rate on a rate link", `{"links":[{"kind":"rate"}],"flows":[{"scheme":"ABC"}]}`, "not a positive bit rate"},
		// Silent acceptances: each of these ran, as something else.
		{"loss above one", `{"links":[{"rate_mbps":8,"loss":7}],"flows":[{"scheme":"ABC"}]}`, "not a probability"},
		{"negative loss", `{"links":[{"rate_mbps":8,"loss":-1}],"flows":[{"scheme":"ABC"}]}`, "not a probability"},
		{"negative delay_ms", `{"links":[{"rate_mbps":8,"delay_ms":-5}],"flows":[{"scheme":"ABC"}]}`, "negative Delay"},
		{"negative buffer", `{"links":[{"rate_mbps":8,"qdisc":{"buffer":-4}}],"flows":[{"scheme":"ABC"}]}`, "negative Qdisc.Buffer"},
		{"duration past the clock", `{"duration_s":1e300,"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC"}]}`, "does not fit the clock"},
		{"lie on droptail", `{"links":[{"rate_mbps":8,"qdisc":{"kind":"droptail","lie":0.3}}],"flows":[{"scheme":"ABC"}]}`, `kind "droptail" takes no configuration`},
		{"dt_ms on droptail", `{"links":[{"rate_mbps":8,"qdisc":{"kind":"droptail","dt_ms":50}}],"flows":[{"scheme":"ABC"}]}`, `kind "droptail" takes no configuration`},
		{"dt_ms on xcp", `{"links":[{"rate_mbps":8,"qdisc":{"kind":"xcp","dt_ms":50}}],"flows":[{"scheme":"XCP"}]}`, `kind "xcp" takes no configuration`},
		{"lie on the proxied router", `{"links":[{"rate_mbps":8,"qdisc":{"kind":"abc-proxied","lie":0.3}}],"flows":[{"scheme":"ABC-proxied"}]}`, "cannot lie"},
		{"background on wifi", `{"links":[{"kind":"wifi"}],"flows":[{"scheme":"ABC"}],
			"background":[{"edge":"fwd0","kind":"const","rate_mbps":1}]}`, "cannot host a fluid background"},
		{"unknown mcs walk", `{"links":[{"kind":"wifi","mcs_walk":"drunk"}],"flows":[{"scheme":"ABC"}]}`, "unknown MCS walk"},
		{"enter_at out of range", `{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC","enter_at":3}]}`, "EnterAt 3 out of range"},
		{"kfailover without a backup",
			`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"rate","rate_mbps":8}],
			  "flows":[{"scheme":"ABC","path":["e"]}],"routing":{"policy":"kfailover"}}`,
			"no edge-disjoint backup path"},
	}
	for _, tc := range cases {
		if _, err := checkScenario(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// A Wi-Fi link spells its MCS walk, and runs it.
	spec, err := checkScenario(`{"duration_s":2,"links":[{"kind":"wifi","mcs_walk":"brownian","mcs_seed":3,"estimate":true,
		"qdisc":{"kind":"abc"}}],"flows":[{"scheme":"ABC"}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if w := spec.Links[0].Wifi; w == nil || w.MCS.Walk != "brownian" || w.MCS.Seed != 3 || !w.Estimate {
		t.Errorf("wifi link decoded to %+v", w)
	}
}

// TestScenarioBackgroundClause covers the background clause: every bad
// form — unknown kind, non-positive rate, unknown or duplicate edge,
// malformed schedule — is an error naming the entry, and the valid forms
// decode to BackgroundSpec entries.
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
		{"unknown edge", chain(`[{"edge":"uplink9","kind":"onoff","flows":100,"rate_mbps":1,"on_s":1,"off_s":1}]`), `unknown edge "uplink9"`},
		{"reverse edge without reverse links", chain(`[{"edge":"rev0","kind":"const","rate_mbps":1}]`), `unknown edge "rev0"`},
		{"missing edge", chain(`[{"kind":"const","rate_mbps":1}]`), "missing edge"},
		{"duplicate edge", chain(`[{"edge":"fwd0","kind":"const","rate_mbps":1},{"edge":"fwd0","kind":"const","rate_mbps":2}]`), "already carries"},
		{"negative start", chain(`[{"edge":"fwd0","kind":"const","rate_mbps":1,"start_s":-1}]`), "non-negative"},
		{"stop before start", chain(`[{"edge":"fwd0","kind":"const","rate_mbps":1,"start_s":3,"stop_s":1}]`), "not after start"},
		{"negative step_ms", chain(`[{"edge":"fwd0","kind":"const","rate_mbps":1,"step_ms":-5}]`), "background 0: negative Step"},
		{"negative flows", chain(`[{"edge":"fwd0","kind":"const","flows":-3,"rate_mbps":1}]`), "background 0: negative Flows"},
	}
	for _, tc := range bad {
		if _, err := checkScenario(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	spec, err := checkScenario(chain(
		`[{"edge":"fwd0","kind":"onoff","flows":1000000,"rate_mbps":48,"on_s":6,"off_s":4,"ramp_s":2,"step_ms":20}]`))
	if err != nil {
		t.Fatalf("valid background clause rejected: %v", err)
	}
	if len(spec.Background) != 1 {
		t.Fatalf("got %d background entries, want 1", len(spec.Background))
	}
	bs := spec.Background[0]
	if bs.Edge != "fwd0" || bs.Kind != "onoff" || bs.Flows != 1_000_000 ||
		bs.RateMbps != 48 || bs.On != 6*sim.Second || bs.Off != 4*sim.Second ||
		bs.Ramp != 2*sim.Second || bs.Step != 20*sim.Millisecond {
		t.Fatalf("background clause decoded incorrectly: %+v", bs)
	}
	// And the scenario actually runs with the aggregate live.
	res, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Backgrounds) != 1 || res.Backgrounds[0].ServedMB <= 0 {
		t.Fatalf("scenario background never served: %+v", res.Backgrounds)
	}
}

// FuzzScenarioJSON throws arbitrary bytes at the scenario decoder and
// runs what it accepts. Nothing may panic; every scenario the decoder
// accepts encodes to JSON that decodes back to a deep-equal scenario;
// and every Spec Check accepts must — when small enough to run in a fuzz
// iteration — execute 100 ms of simulated time without a panic, a
// mid-run wiring error, an event-budget overrun or packet books that do
// not balance (Run's audit): at one shard whatever the input asks for,
// and again at two whenever Check accepts it there. The seed corpus
// (testdata/fuzz) includes every example scenario plus malformed
// fragments.
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
	f.Add([]byte(`{"links":[{"rate_mbps":1}],"workloads":[{"scheme":"Cubic","arrival":{"kind":"poisson","per_s":1},"size":{"kind":"fixed","kb":10}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":1}],"workloads":[{"scheme":"Cubic","arrival":{"kind":"deterministic","gap_ms":-2},"size":{"kind":"pareto","min_kb":1,"max_kb":0}}]}`))
	f.Add([]byte(`{"workloads":[{"scheme":"Cubic","arrival":{"kind":"poisson","per_s":1},"size":{"kind":"pareto","min_kb":1,"max_kb":2,"alpha":-1}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC"}],"events":[{"at_s":1,"kind":"link_down","edge":"fwd0"},{"at_s":2,"kind":"link_up","edge":"fwd0"}]}`))
	f.Add([]byte(`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"rate","rate_mbps":8}],"flows":[{"scheme":"ABC","path":["e"]}],"events":[{"at_s":1,"kind":"reroute","flow":0,"ack":true,"path":["e"]}]}`))
	f.Add([]byte(`{"events":[{"at_s":-3,"kind":"teleport","edge":"","rate_mbps":-1}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"workloads":[{"scheme":"Cubic","arrival":{"kind":"replay","file":"no-such.csv"}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"workloads":[{"scheme":"Cubic","arrival":{"kind":"replay"},"size":{"kind":"fixed","kb":1}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC","app":{"kind":"abr","chunk_s":1,"max_buf_s":6}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC","app":{"kind":"abr","chunk_s":-1}}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC"}],"sample_ms":-5}`))
	f.Add([]byte(`{"links":[{"kind":"wifi","mcs":0,"mcs_walk":"alternating"}],"flows":[{"scheme":"ABC"}]}`))
	f.Add([]byte(`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"rate","rate_mbps":8}],"flows":[{"scheme":"ABC","path":["e"]}],"routing":{"policy":"kfailover","k":1,"recompute_ms":20,"drain_ms":50}}`))
	f.Add([]byte(`{"nodes":["a","b"],"edges":[{"name":"e","from":"a","to":"b","kind":"rate","rate_mbps":8}],"flows":[{"scheme":"ABC","path":["e"]}],"routing":{"policy":"shortest","k":3}}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC"}],"routing":{"policy":"rip","recompute_ms":-1,"drain_ms":-1}}`))
	f.Add([]byte(`{"links":[{"rate_mbps":60}],"flows":[{"scheme":"ABC"}],"background":[{"edge":"fwd0","kind":"const","flows":1000000,"rate_mbps":48,"ramp_s":2}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":60}],"flows":[{"scheme":"ABC"}],"background":[{"edge":"fwd0","kind":"poisson","rate_mbps":1}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":60}],"flows":[{"scheme":"ABC"}],"background":[{"edge":"fwd0","kind":"const","rate_mbps":-4}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":60}],"flows":[{"scheme":"ABC"}],"background":[{"edge":"uplink9","kind":"onoff","flows":100,"rate_mbps":1,"on_s":1,"off_s":1}]}`))
	// What used to panic, hang or run as something else (all must-reject),
	// and a k-failover mesh that does have its backup (must run).
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC","start_s":-1}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"workloads":[{"scheme":"Cubic","arrival":{"kind":"poisson","per_s":1},"start_s":-1,"size":{"kind":"fixed","kb":10}}]}`))
	f.Add([]byte(`{"links":[{"steps_mbps":[8,4],"step_ms":1e-9}],"flows":[{"scheme":"ABC"}]}`))
	f.Add([]byte(`{"links":[{"rate_mbps":8}],"workloads":[{"scheme":"Cubic","arrival":{"kind":"poisson","per_s":1e12},"size":{"kind":"fixed","kb":10}}]}`))
	f.Add([]byte(`{"nodes":["a","b","c"],"edges":[{"name":"e1","from":"a","to":"b","kind":"rate","rate_mbps":8},{"name":"e2","from":"b","to":"c","kind":"rate","rate_mbps":8},{"name":"e3","from":"a","to":"c","kind":"rate","rate_mbps":8}],"flows":[{"scheme":"ABC","path":["e1","e2"]}],"events":[{"at_s":0.02,"kind":"link_down","edge":"e1"}],"routing":{"policy":"kfailover","k":1}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := parseScenario(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not encode: %v", err)
		}
		sc2, err := parseScenario(out)
		if err != nil {
			t.Fatalf("encoding of an accepted scenario does not decode: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Fatalf("round trip changed the scenario:\n%s", out)
		}
		spec := sc.Spec
		if Check(spec) != nil {
			return
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
				t.Fatalf("a scenario Check accepted does not build at 100 ms and %d shard(s): %v", shards, err)
			}
			for i, coord := 0, c.g.Coordinator(); i < coord.Shards(); i++ {
				coord.Shard(i).SetEventLimit(3e6)
			}
			if _, _, err := c.run(); err != nil {
				t.Fatalf("a scenario Check accepted failed mid-run at %d shard(s): %v", shards, err)
			}
		}
	})
}

// TestScenarioSourceClauses covers the source clause: every kind builds
// the right cc.Source afresh each run, and malformed clauses fail naming
// the flow.
func TestScenarioSourceClauses(t *testing.T) {
	check := func(flow string) (Spec, error) {
		return checkScenario(`{"duration_s": 5, "links": [{"kind": "rate", "rate_mbps": 10}], "flows": [` + flow + `]}`)
	}
	spec, err := check(`{"scheme": "Cubic", "source": {"kind": "rate", "mbps": 2}}`)
	if err != nil {
		t.Fatal(err)
	}
	if rl, ok := spec.Flows[0].Source.source().(*cc.RateLimited); !ok || rl.Bps != 2e6 {
		t.Errorf("rate source built %#v", spec.Flows[0].Source.source())
	}
	spec, err = check(`{"scheme": "Cubic", "source": {"kind": "onoff", "on_s": 1, "off_s": 2, "start_s": 3}}`)
	if err != nil {
		t.Fatal(err)
	}
	if oo, ok := spec.Flows[0].Source.source().(*cc.OnOff); !ok || oo.OnFor != sim.Second || oo.OffFor != 2*sim.Second || oo.Start != 3*sim.Second {
		t.Errorf("onoff source built %#v", spec.Flows[0].Source.source())
	}
	spec, err = check(`{"scheme": "Cubic", "source": {"kind": "fixed", "bytes": 100000}}`)
	if err != nil {
		t.Fatal(err)
	}
	src := spec.Flows[0].Source
	if fx, ok := src.source().(*cc.Fixed); !ok || fx.Remaining != 100000 {
		t.Fatalf("fixed source built %#v", src.source())
	}
	if src.source() == src.source() {
		t.Error("two runs share one fixed source")
	}

	bad := []struct{ name, flow string }{
		{"unknown kind", `{"scheme": "Cubic", "source": {"kind": "warp"}}`},
		{"rate without mbps", `{"scheme": "Cubic", "source": {"kind": "rate"}}`},
		{"negative rate", `{"scheme": "Cubic", "source": {"kind": "rate", "mbps": -3}}`},
		{"onoff without on_s", `{"scheme": "Cubic", "source": {"kind": "onoff", "off_s": 1}}`},
		{"fixed without bytes", `{"scheme": "Cubic", "source": {"kind": "fixed"}}`},
		{"the retired rate_mbps shorthand", `{"scheme": "Cubic", "rate_mbps": 1}`},
		{"app plus source", `{"scheme": "Cubic", "source": {"kind": "fixed", "bytes": 1}, "app": {"kind": "rpc"}}`},
		{"unknown app kind", `{"scheme": "Cubic", "app": {"kind": "quic"}}`},
		{"abr fields on rpc", `{"scheme": "Cubic", "app": {"kind": "rpc", "chunk_s": 2}}`},
		{"rpc fields on abr", `{"scheme": "Cubic", "app": {"kind": "abr", "think_ms": 10}}`},
		{"abr nonpositive ladder rung", `{"scheme": "Cubic", "app": {"kind": "abr", "ladder_kbps": [-300, 100]}}`},
		{"abr non-ascending ladder", `{"scheme": "Cubic", "app": {"kind": "abr", "ladder_kbps": [300, 300]}}`},
		{"rpc negative think_ms", `{"scheme": "Cubic", "app": {"kind": "rpc", "think_ms": -200}}`},
		{"negative start_s", `{"scheme": "Cubic", "start_s": -1}`},
		{"stop_s before start_s", `{"scheme": "Cubic", "start_s": 3, "stop_s": 2}`},
		{"abr negative chunk_s", `{"scheme": "Cubic", "app": {"kind": "abr", "chunk_s": -2}}`},
	}
	for _, tc := range bad {
		if _, err := check(tc.flow); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestScenarioWorkloadClauses covers the workload block: a well-formed
// clause decodes to a WorkloadSpec, malformed clauses fail loudly.
func TestScenarioWorkloadClauses(t *testing.T) {
	check := func(workload string) (Spec, error) {
		return checkScenario(`{"duration_s": 5, "links": [{"kind": "rate", "rate_mbps": 10}],
			"flows": [{"scheme": "Cubic"}], "workloads": [` + workload + `]}`)
	}
	spec, err := check(`{"scheme": "ABC", "class": "web", "arrival": {"kind": "poisson", "per_s": 2},
		"size": {"kind": "pareto", "min_kb": 10, "max_kb": 500, "alpha": 1.3},
		"stop_s": 4, "max_active": 9, "ref_mbps": 8}`)
	if err != nil {
		t.Fatal(err)
	}
	ws := spec.Workloads[0]
	if ws.Scheme != "ABC" || ws.Class != "web" || ws.MaxActive != 9 || ws.RefMbps != 8 {
		t.Errorf("workload fields wrong: %+v", ws)
	}
	if a, ok := ws.Arrival.(app.Poisson); !ok || a.PerSec != 2 {
		t.Errorf("arrival decoded to %#v, want Poisson at 2/s", ws.Arrival)
	}
	if bp, ok := ws.Sizes.(app.BoundedPareto); !ok || bp.Alpha != 1.3 {
		t.Errorf("pareto size decoded to %#v", ws.Sizes)
	}
	spec, err = check(`{"scheme": "Cubic", "arrival": {"kind": "deterministic", "gap_ms": 250},
		"size": {"kind": "fixed", "kb": 10}}`)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := spec.Workloads[0].Arrival.(app.Deterministic); !ok || d.Gap != 250*sim.Millisecond {
		t.Errorf("deterministic arrival decoded to %#v", spec.Workloads[0].Arrival)
	}

	size := `"size": {"kind": "fixed", "kb": 1}`
	bad := []struct{ name, workload string }{
		{"unknown scheme", `{"scheme": "nope", "arrival": {"kind": "poisson", "per_s": 1}, ` + size + `}`},
		{"missing arrival", `{"scheme": "Cubic", ` + size + `}`},
		{"missing per_s", `{"scheme": "Cubic", "arrival": {"kind": "poisson"}, ` + size + `}`},
		{"the retired per_s beside the arrival", `{"scheme": "Cubic", "arrival": {"kind": "poisson"}, "per_s": 1, ` + size + `}`},
		{"unknown arrival", `{"scheme": "Cubic", "arrival": {"kind": "bursty", "per_s": 1}, ` + size + `}`},
		{"unknown size kind", `{"scheme": "Cubic", "arrival": {"kind": "poisson", "per_s": 1}, "size": {"kind": "zipf"}}`},
		{"fixed size without kb", `{"scheme": "Cubic", "arrival": {"kind": "poisson", "per_s": 1}, "size": {"kind": "fixed"}}`},
		{"pareto bad range", `{"scheme": "Cubic", "arrival": {"kind": "poisson", "per_s": 1}, "size": {"kind": "pareto", "min_kb": 10, "max_kb": 5}}`},
		{"pareto negative alpha", `{"scheme": "Cubic", "arrival": {"kind": "poisson", "per_s": 1}, "size": {"kind": "pareto", "min_kb": 1, "max_kb": 10, "alpha": -1.2}}`},
		{"unknown dir", `{"scheme": "Cubic", "arrival": {"kind": "poisson", "per_s": 1}, "dir": "sideways", ` + size + `}`},
		{"mesh path on chain", `{"scheme": "Cubic", "arrival": {"kind": "poisson", "per_s": 1}, "path": ["x"], ` + size + `}`},
		{"negative ref_mbps", `{"scheme": "Cubic", "arrival": {"kind": "poisson", "per_s": 1}, "ref_mbps": -9, ` + size + `}`},
		{"poisson flood", `{"scheme": "Cubic", "arrival": {"kind": "poisson", "per_s": 1e12}, ` + size + `}`},
		{"deterministic flood", `{"scheme": "Cubic", "arrival": {"kind": "deterministic", "gap_ms": 1e-9}, ` + size + `}`},
	}
	for _, tc := range bad {
		// A flood that checked would hang the run, so rejection has a deadline.
		err := within(t, 5*time.Second, func() error { _, err := check(tc.workload); return err })
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestScenarioEventClauses covers the events block: bad events fail
// Check, and a well-formed timeline executes.
func TestScenarioEventClauses(t *testing.T) {
	run := func(events string) error {
		spec, err := checkScenario(`{
			"seed": 1, "duration_s": 2,
			"nodes": ["a", "b"],
			"edges": [
				{"name": "e1", "from": "a", "to": "b", "kind": "rate", "rate_mbps": 8,
				 "qdisc": {"kind": "droptail"}, "delay_ms": 2},
				{"name": "e2", "from": "a", "to": "b", "kind": "wire", "delay_ms": 5}
			],
			"flows": [{"scheme": "Cubic", "path": ["e1"]}],
			"events": [` + events + `]
		}`)
		if err != nil {
			return err
		}
		_, _, err = Run(spec)
		return err
	}
	good := `{"at_s": 0.5, "kind": "set_rate", "edge": "e1", "rate_mbps": 4},
		{"at_s": 0.9, "kind": "link_down", "edge": "e1"},
		{"at_s": 1.0, "kind": "link_up", "edge": "e1"},
		{"at_s": 1.2, "kind": "reroute", "flow": 0, "path": ["e2"]}`
	if err := run(good); err != nil {
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
		if err := run(tc.in); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestScenarioReplayWorkload: the replay arrival spawns exactly the
// logged flows with the logged sizes.
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
	spec, err := checkScenario(`{
		"seed": 1, "duration_s": 10, "warmup_s": 0.001,
		"links": [{"kind": "rate", "rate_mbps": 20}],
		"workloads": [{"scheme": "Cubic",
			"arrival": {"kind": "replay", "file": "` + log + `"}}]
	}`)
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
		{"replay with per_s", `{"scheme": "Cubic", "arrival": {"kind": "replay", "per_s": 2, "file": "` + log + `"}}`},
		{"replay with size", `{"scheme": "Cubic", "arrival": {"kind": "replay", "file": "` + log + `"},
			"size": {"kind": "fixed", "kb": 1}}`},
		{"replay without file", `{"scheme": "Cubic", "arrival": {"kind": "replay"}}`},
		{"file on poisson", `{"scheme": "Cubic", "arrival": {"kind": "poisson", "per_s": 1, "file": "x"},
			"size": {"kind": "fixed", "kb": 1}}`},
		{"missing log", `{"scheme": "Cubic", "arrival": {"kind": "replay", "file": "` + log + `.nope"}}`},
	}
	for _, tc := range bad {
		if _, err := checkScenario(`{"duration_s": 5, "links": [{"kind": "rate", "rate_mbps": 10}],
			"workloads": [` + tc.workload + `]}`); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestScenarioABRPolicyClause: the abr client has one selection policy,
// buffer-based. Its clause decodes chunk_s/max_buf_s/ladder_kbps into the
// app config, and the former rate-policy keys are each rejected by name.
func TestScenarioABRPolicyClause(t *testing.T) {
	check := func(app string) (Spec, error) {
		return checkScenario(`{"duration_s": 5, "links": [{"kind": "rate", "rate_mbps": 10}],
			"flows": [{"scheme": "ABC", "app": ` + app + `}]}`)
	}
	spec, err := check(`{"kind": "abr", "chunk_s": 1, "max_buf_s": 8, "ladder_kbps": [300, 1200]}`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := spec.Flows[0].App.ABR; cfg.ChunkS != 1 || cfg.MaxBufS != 8 || len(cfg.LadderKbps) != 2 {
		t.Fatalf("abr config = %+v", cfg)
	}
	for _, key := range []string{`"policy": "rate"`, `"history_chunks": 3`, `"safety": 0.8`} {
		_, err := check(`{"kind": "abr", ` + key + `}`)
		if name := strings.SplitN(key, ":", 2)[0]; err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("abr with %s: err = %v, want one naming %s", key, err, name)
		}
	}
}

// TestRemovedSpellingsRejected: a scheme, qdisc kind, key or kind the
// simulator does not have is a loud error naming it, never a silent
// default.
func TestRemovedSpellingsRejected(t *testing.T) {
	const link = `"links": [{"kind": "rate", "rate_mbps": 8`
	cases := []struct{ in, want string }{
		{`{` + link + `}], "flows": [{"scheme": "Reno"}]}`, `"Reno"`},
		{`{` + link + `, "qdisc": {"kind": "red"}}], "flows": [{"scheme": "Cubic"}]}`, `"red"`},
		{`{` + link + `, "reorder_prob": 0.1}], "flows": [{"scheme": "Cubic"}]}`, `"reorder_prob"`},
		{`{` + link + `}], "flows": [{"scheme": "ABC", "app": {"kind": "abr", "policy": "rate"}}]}`, `"policy"`},
		{`{` + link + `}], "flows": [{"scheme": "ABC", "app": {"kind": "abr", "history_chunks": 3}}]}`, `"history_chunks"`},
		{`{` + link + `}], "workloads": [{"scheme": "Cubic", "arrival": {"kind": "poisson", "per_s": 1},
			"size": {"kind": "choice", "sizes_kb": [1, 2]}}]}`, `"choice"`},
		{`{` + link + `, "delay_ms": 2}], "flows": [{"scheme": "Cubic"}],
			"events": [{"at_s": 1, "kind": "set_delay", "edge": "fwd0"}]}`, `"set_delay"`},
		{`{` + link + `}], "flows": [{"scheme": "Cubic"}], "routing": {"flows": [0]}}`, `routing: unknown field "flows"`},
		{`{` + link + `}], "flows": [{"scheme": "Cubic"}], "background": [{"edge": "fwd0", "kind": "aimd", "flows": 10}]}`,
			`unknown aggregate kind "aimd" (valid: [const onoff])`},
		{`{` + link + `}], "flows": [{"scheme": "Cubic"}],
			"background": [{"edge": "fwd0", "kind": "const", "rate_mbps": 1, "rtt_ms": 80}]}`, `unknown field "rtt_ms"`},
	}
	for _, tc := range cases {
		if _, err := checkScenario(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", tc.in, err, tc.want)
		}
	}
}

// TestScenarioWorkloadRuns: a declarative scenario with a workload block
// runs end to end and reports completions.
func TestScenarioWorkloadRuns(t *testing.T) {
	spec, err := checkScenario(`{
		"seed": 1, "duration_s": 10, "warmup_s": 1,
		"links": [{"kind": "rate", "rate_mbps": 10}],
		"workloads": [{"scheme": "Cubic", "arrival": {"kind": "deterministic", "gap_ms": 1000},
			"size": {"kind": "fixed", "kb": 50}}]
	}`)
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

// TestSpecIsData: nothing in a Spec's type graph is code or a channel —
// every field is a value — so a Spec can be printed, compared and run any
// number of times. Interface-valued fields are walked through every type
// the scenario format lets them hold.
func TestSpecIsData(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			walk(ty.Elem(), path)
		case reflect.Interface:
			for name, ct := range kinds[ty] {
				walk(ct, path+"("+name+")")
			}
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(Spec{}), "Spec")
}

// TestSpecRunsTwiceAlike: a Spec holds no run state, so running one twice
// in one process gives the same result — each example file's included,
// at a third of its duration.
func TestSpecRunsTwiceAlike(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) < 18 {
		t.Fatalf("found %d example scenarios, want 18: %v", len(paths), err)
	}
	digest := func(spec Spec) string {
		res, pooled, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		PrintResult(&sb, res, pooled)
		return sb.String()
	}
	for _, path := range paths {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		spec := sc.Spec
		spec.Duration /= 3
		if first, second := digest(spec), digest(spec); first != second {
			t.Errorf("%s: the second run of one Spec differs from the first:\n%s\n---\n%s", path, first, second)
		}
	}
}
