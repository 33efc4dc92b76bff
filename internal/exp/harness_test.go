package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"abc/internal/sim"
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
// is the one place a flow goes on a graph), and outside wifiexp.go — the
// link-level Fig. 4/5 micro-experiments, which have no flows — none
// builds a simulator or a graph of its own or runs one bare. A flow
// wired elsewhere is one the sampler, the tracer and the pooled metrics
// do not see.
func TestOneWayOntoTheGraph(t *testing.T) {
	only := map[string]string{
		"sim.New(":           "wifiexp.go",
		"topo.New(":          "wifiexp.go",
		".RunUntil(":         "wifiexp.go",
		"cc.NewEndpoint(":    "wire.go",
		"netem.NewReceiver(": "wire.go",
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files found: %v", err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for call, home := range only {
			if file != home && bytes.Contains(src, []byte(call)) {
				t.Errorf("%s calls %s — only %s may", file, call, home)
			}
		}
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
