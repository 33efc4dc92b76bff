package exp

import (
	"strings"
	"testing"

	"abc/internal/sim"
)

// wantRunError asserts Run rejects the spec with a message containing
// frag — the regression shape for the silent-misconfiguration sweep:
// each formerly-ignored knob must now fail loudly.
func wantRunError(t *testing.T, spec Spec, frag string) {
	t.Helper()
	_, _, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), frag) {
		t.Fatalf("Run error = %v, want message containing %q", err, frag)
	}
}

// TestNegativeSampleRejected: a negative Sample would arm timers in the
// past; it must be a loud Spec error, not a silent no-op.
func TestNegativeSampleRejected(t *testing.T) {
	spec := conservationSpec(1, 200*sim.Millisecond, sim.Second)
	spec.Sample = -sim.Millisecond
	wantRunError(t, spec, "negative Sample")
}

// TestScenarioNegativeSampleMs: a file gets the same contract, before the
// clock starts.
func TestScenarioNegativeSampleMs(t *testing.T) {
	sc, err := parseScenario([]byte(`{"links":[{"rate_mbps":8}],"flows":[{"scheme":"ABC"}],"sample_ms":-5}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(sc.Spec); err == nil || !strings.Contains(err.Error(), "negative Sample") {
		t.Fatalf("Check error = %v, want negative sample_ms rejection", err)
	}
}

// TestRoutingSpecValidation sweeps the Routing clause's misconfiguration
// space: every malformed combination is a Spec error with a message
// naming the offending knob.
func TestRoutingSpecValidation(t *testing.T) {
	base := func() Spec { return conservationSpec(1, 200*sim.Millisecond, sim.Second) }

	spec := base()
	spec.Routing = &RoutingSpec{Policy: "shortest", K: 3}
	wantRunError(t, spec, "silently ignore K=3")

	spec = base()
	spec.Routing = &RoutingSpec{K: 2} // default policy is shortest
	wantRunError(t, spec, "kfailover knob")

	spec = base()
	spec.Routing = &RoutingSpec{Policy: "ospf"}
	wantRunError(t, spec, "unknown policy")

	spec = base()
	spec.Routing = &RoutingSpec{Policy: "kfailover", K: -1}
	wantRunError(t, spec, "negative K")

	spec = base()
	spec.Routing = &RoutingSpec{RecomputeLatency: -sim.Millisecond}
	wantRunError(t, spec, "negative RecomputeLatency")

	spec = base()
	spec.Routing = &RoutingSpec{Drain: -sim.Millisecond}
	wantRunError(t, spec, "negative Drain")

	spec = base()
	spec.Routing = &RoutingSpec{}
	if _, _, err := Run(spec); err != nil {
		t.Fatalf("valid default Routing clause rejected: %v", err)
	}
}

// TestScenarioRoutingClause: the JSON routing clause compiles into a
// RoutingSpec, applying defaults and rejecting malformed knobs at
// compile time rather than mid-run.
func TestScenarioRoutingClause(t *testing.T) {
	const mesh = `{"nodes":["a","b","c"],
		"edges":[{"name":"e1","from":"a","to":"b","kind":"rate","rate_mbps":8},
		         {"name":"e2","from":"b","to":"c","kind":"rate","rate_mbps":8},
		         {"name":"e3","from":"a","to":"c","kind":"rate","rate_mbps":8}],
		"flows":[{"scheme":"ABC","path":["e1","e2"]}],`

	sc, err := parseScenario([]byte(mesh + `"routing":{"policy":"kfailover","k":1,"recompute_ms":20,"drain_ms":50}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(sc.Spec); err != nil {
		t.Fatal(err)
	}
	rs := sc.Spec.Routing
	if rs == nil || rs.Policy != "kfailover" || rs.K != 1 ||
		rs.RecomputeLatency != 20*sim.Millisecond || rs.Drain != 50*sim.Millisecond {
		t.Fatalf("compiled RoutingSpec = %+v, want the scenario clause verbatim", rs)
	}

	for _, bad := range []struct{ clause, frag string }{
		{`"routing":{"policy":"shortest","k":2}`, "kfailover knob"},
		{`"routing":{"policy":"rip"}`, "unknown policy"},
		{`"routing":{"recompute_ms":-1}`, "negative RecomputeLatency"},
		{`"routing":{"drain_ms":-1}`, "negative Drain"},
	} {
		sc, err := parseScenario([]byte(mesh + bad.clause + `}`))
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(sc.Spec); err == nil || !strings.Contains(err.Error(), bad.frag) {
			t.Fatalf("clause %s: Check error = %v, want message containing %q", bad.clause, err, bad.frag)
		}
	}
}

// TestAutoRouteDriver pins the autoroute experiment's emergent behavior:
// the mid-run outage fails the managed flow over (data and ACK), the
// recovery fails it back, and the failover is make-before-break.
func TestAutoRouteDriver(t *testing.T) {
	rows, err := autoRoute(Params{Schemes: []string{"ABC"}, Dur: 8 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := rows["ABC"]
	if !ok {
		t.Fatalf("no ABC row in %v", rows)
	}
	if len(r.RouteChanges) != 4 {
		t.Fatalf("RouteChanges = %d, want 4 (data+ack failover, data+ack failback): %+v", len(r.RouteChanges), r.RouteChanges)
	}
	if r.RouteChanges[0].Path[0] != "cell2" {
		t.Fatalf("failover data path = %v, want cell2 first hop", r.RouteChanges[0].Path)
	}
	if r.StrandedDrops != 0 {
		t.Fatalf("StrandedDrops = %d, want 0 (drain window covers the failover)", r.StrandedDrops)
	}
	if r.PostMbps <= 0 {
		t.Fatalf("PostMbps = %.2f, want recovery after the outage", r.PostMbps)
	}
}

// TestFlapStormDriver: the shortest-path policy absorbs the 20ms blip
// (shorter than its 30ms convergence window) but reacts to the two long
// outages — four route changes, not six.
func TestFlapStormDriver(t *testing.T) {
	rows, err := flapStorm(Params{Schemes: []string{"ABC"}, Dur: 8 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := rows["ABC"]
	if !ok {
		t.Fatalf("no ABC row in %v", rows)
	}
	if len(r.RouteChanges) != 4 {
		t.Fatalf("RouteChanges = %d, want 4 (blip absorbed by the coalescing window): %+v", len(r.RouteChanges), r.RouteChanges)
	}
}
