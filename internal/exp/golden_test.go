// Golden-figure regression suite: every figure driver and scenario
// driver runs at a fixed seed and short duration, its result is
// serialized to canonical JSON (encoding/json sorts map keys, floats use
// the shortest round-trip form) and SHA-256-digested, and the digest is
// diffed against testdata/golden.json. A refactor that changes any
// output byte — a float, a counter, an ordering — fails here mechanically
// instead of relying on ad-hoc byte comparisons between branches.
//
// Each case carries two digests. "full" is the digest of the whole
// serialization. "masked" is the digest of the same serialization with
// every number under a key matching percentileMask replaced by null: it
// is what a change to the percentile estimator (metrics.DelayRecorder's
// engine) must leave alone, because the recorder feeds nothing back into
// the simulation. A case whose full digest moves while its masked digest
// holds changed percentile fields and nothing else.
//
// After an *intentional* output change, regenerate with
//
//	go test ./internal/exp/ -run TestGoldenFigures -update-golden
//
// and commit the new testdata/golden.json together with the change that
// explains it.
package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"testing"

	"abc/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden.json with recomputed digests")

const goldenPath = "testdata/golden.json"

// percentileMask matches the result keys that hold a percentile read
// from a DelayRecorder, or a mean of such percentiles, and nothing else.
// In the corpus that is P95Ms, P95Slowdown, QDelayP95 (and its Enqueue,
// Dequeue, NoCross variants), MaxQDelayP95, AttackedP95Ms, HonestP95Ms,
// victim_p95_ms and bystander_p95_ms.
var percentileMask = regexp.MustCompile(`(?i)p95|p50|p99`)

// goldenEntry is one corpus row of testdata/golden.json.
type goldenEntry struct {
	Full   string `json:"full"`
	Masked string `json:"masked"`
}

// goldenCase is one corpus row: a table driver run at fixed Params, or
// — where the corpus locks a sub-case Params cannot say — a closure.
type goldenCase struct {
	name   string
	driver string
	params Params
	sub    func() (any, error)
}

func (c goldenCase) run() (any, error) {
	if c.sub != nil {
		return c.sub()
	}
	d, ok := Lookup(c.driver)
	if !ok {
		return nil, fmt.Errorf("golden case %q names no driver %q", c.name, c.driver)
	}
	return d.Run(c.params)
}

// goldenCases enumerates every locked-down driver. Durations are short —
// the digest locks determinism and output compatibility, not steady-state
// physics (the physics assertions live in the figure tests).
func goldenCases() []goldenCase {
	const short = 8 * sim.Second
	at := func(schemes ...string) Params { return Params{Seed: 1, Dur: short, Schemes: schemes} }
	fig12 := func(policy string) func() (any, error) {
		return func() (any, error) {
			cfg := defaultFig12Config()
			cfg.Runs, cfg.Duration, cfg.Seed = 1, short, 1
			return fig12WeightPolicy(policy, cfg)
		}
	}
	// The three sharded-mesh entries digest the same result with the
	// shard count masked, so the corpus itself asserts the sharded
	// runtime's digest invariance: all three lines must stay equal.
	shardedMesh := func(shards int) func() (any, error) {
		return func() (any, error) {
			r, err := ShardedMesh(shards, short, 1)
			if err != nil {
				return nil, err
			}
			c := *r
			c.Shards = 0
			return &c, nil
		}
	}
	return []goldenCase{
		{name: "fig1-timeseries", driver: "fig1", params: at()},
		{name: "fig2-feedback-mode", driver: "fig2", params: at()},
		{name: "fig6-nonabc-bottleneck", driver: "fig6", params: at()},
		// One of the fig8 driver's three panels.
		{name: "fig8-scatter-downlink", driver: "fig8", sub: func() (any, error) {
			return fig8Scatter(Downlink, Params{Schemes: []string{"ABC", "Cubic"}, Dur: short, Seed: 1})
		}},
		{name: "fig9-bars", driver: "fig9", params: at("ABC", "Cubic")},
		{name: "fig10-wifi", driver: "fig10", params: at()},
		{name: "fig11-cross-traffic", driver: "fig11", params: at()},
		// One policy each of the fig12 driver's two.
		{name: "fig12-maxmin", driver: "fig12", sub: fig12("maxmin")},
		{name: "fig12-zombie", driver: "fig12", sub: fig12("zombie")},
		{name: "fig17-square-wave", driver: "fig17", params: at("ABC", "RCP")},
		{name: "uplink-congested-ack", driver: "uplink", params: at("ABC", "Cubic")},
		// One scheme of the heterortt driver's rows, without the scheme
		// column the driver adds.
		{name: "hetero-rtt", driver: "heterortt", sub: func() (any, error) {
			return heteroRTTFairness("ABC", short, 1)
		}},
		// One loss model each of the lossy driver's two.
		{name: "lossy-random", driver: "lossy", sub: func() (any, error) {
			return lossyLink([]string{"ABC"}, nil, false, short, 1)
		}},
		{name: "lossy-bursty", driver: "lossy", sub: func() (any, error) {
			return lossyLink([]string{"ABC"}, nil, true, short, 1)
		}},
		{name: "mesh-shared-junction", driver: "mesh", params: at("ABC", "Cubic")},
		{name: "marked-uplink", driver: "markeduplink", params: at("ABC", "Cubic")},
		{name: "handover", driver: "handover", params: at("ABC", "Cubic")},
		{name: "flap", driver: "flap", params: at("ABC", "Cubic")},
		{name: "autoroute", driver: "autoroute", params: at("ABC", "Cubic")},
		{name: "flapstorm", driver: "flapstorm", params: at("ABC", "Cubic")},
		{name: "targeted", driver: "targeted", params: at("ABC", "Cubic")},
		{name: "greedy", driver: "greedy", params: at("ABC", "XCP")},
		{name: "app-shortflows", driver: "shortflows", params: at("ABC", "Cubic")},
		{name: "app-video", driver: "video", params: at("ABC", "Cubic")},
		{name: "app-rpc", driver: "rpc", params: at("ABC", "Cubic")},
		{name: "hybrid", driver: "hybrid", params: at()},
		{name: "stability", driver: "stability"},
		{name: "sharded-mesh-s1", driver: "sharded", sub: shardedMesh(1)},
		{name: "sharded-mesh-s2", driver: "sharded", sub: shardedMesh(2)},
		{name: "sharded-mesh-s4", driver: "sharded", sub: shardedMesh(4)},
	}
}

// goldenDigest is the full digest of a driver result, for the tests
// that compare two runs with each other.
func goldenDigest(v any) (digest string, size int, err error) {
	e, size, err := goldenDigests(v)
	return e.Full, size, err
}

// goldenDigests canonicalizes a driver result and digests it, whole and
// percentile-masked. The byte length comes along so a result type that
// quietly stops marshalling (unexported fields, nil maps) fails loudly
// instead of locking down an empty object.
func goldenDigests(v any) (e goldenEntry, size int, err error) {
	b, err := json.Marshal(v)
	if err != nil {
		return e, 0, err
	}
	// Round-trip through a generic tree with the numbers kept as their
	// literal text, so masking changes nothing but the masked values.
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return e, 0, err
	}
	mb, err := json.Marshal(maskPercentiles(tree, false))
	if err != nil {
		return e, 0, err
	}
	return goldenEntry{Full: sha256Hex(b), Masked: sha256Hex(mb)}, len(b), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// maskPercentiles returns v with every number at or below a key that
// matches percentileMask replaced by nil.
func maskPercentiles(v any, masked bool) any {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			x[k] = maskPercentiles(child, masked || percentileMask.MatchString(k))
		}
	case []any:
		for i, child := range x {
			x[i] = maskPercentiles(child, masked)
		}
	case json.Number:
		if masked {
			return nil
		}
	}
	return v
}

// TestGoldenFigures recomputes every case and diffs its digest against
// the checked-in corpus. With -update-golden it rewrites the corpus
// instead of diffing.
func TestGoldenFigures(t *testing.T) {
	want := map[string]goldenEntry{}
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("no golden corpus (%v); generate one with -update-golden", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("corrupt %s: %v", goldenPath, err)
		}
	}
	cases := goldenCases()
	got := make(map[string]goldenEntry, len(cases))
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			v, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			d, n, err := goldenDigests(v)
			if err != nil {
				t.Fatal(err)
			}
			if n <= 2 {
				t.Fatalf("result serialized to %d bytes — digest locks down nothing", n)
			}
			got[c.name] = d
			if *updateGolden {
				return
			}
			switch w, ok := want[c.name]; {
			case !ok:
				t.Errorf("no golden digest for %q; add it with -update-golden", c.name)
			case w.Masked != d.Masked:
				t.Errorf("output digest changed:\n got %s\nwant %s\nif intentional, regenerate with -update-golden and commit the new corpus", d.Full, w.Full)
			case w.Full != d.Full:
				t.Errorf("percentile fields changed (the masked digest holds, so nothing else did):\n got %s\nwant %s\nif intentional, regenerate with -update-golden and commit the new corpus", d.Full, w.Full)
			}
		})
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	// Stale corpus entries mean a driver was renamed or dropped without
	// regenerating — as much a silent drift as a changed digest.
	var stale []string
	for name := range want {
		if _, ok := got[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("stale golden entry %q has no driver; regenerate with -update-golden", name)
	}
}

// TestGoldenParallelModes asserts the digests are a pure function of the
// spec, independent of harness scheduling: sequential (Parallelism=1) and
// worker-pool (Parallelism=4) runs of multi-cell drivers must produce
// byte-identical serializations. Combined with the CI -race run of this
// package, this is the acceptance bar for every future harness change.
func TestGoldenParallelModes(t *testing.T) {
	pick := map[string]bool{
		"fig9-bars": true, "mesh-shared-junction": true, "marked-uplink": true,
		"app-shortflows": true, "app-video": true, "app-rpc": true,
		"handover": true, "flap": true, "targeted": true, "greedy": true,
		"autoroute": true, "flapstorm": true, "hybrid": true,
	}
	defer func(p int) { Parallelism = p }(Parallelism)
	for _, c := range goldenCases() {
		if !pick[c.name] {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			Parallelism = 1
			v1, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			seq, _, err := goldenDigest(v1)
			if err != nil {
				t.Fatal(err)
			}
			Parallelism = 4
			v2, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			par, _, err := goldenDigest(v2)
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Errorf("sequential digest %s != parallel digest %s", seq, par)
			}
		})
	}
}
