package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repo.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json and the program's own metric and
// workload tables in step, within the benchmark contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) || len(workloads) > 8 {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d (limit 8)", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.name)
		}
	}
	same := func(kind string, js []jsonMetric, defs []metricDef, limit int, bounded bool) {
		if len(js) != len(defs) || len(defs) > limit {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d (limit %d)", kind, len(js), len(defs), limit)
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if js[i].Name != d.name || js[i].Unit != d.unit || js[i].Better != d.better || js[i].Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, js[i], d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
			if bounded && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %q: bound %v outside (0, 0.25]", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, 16, true)
	same("per_layer", bj.PerLayer, perLayer, 128, false)
}

// TestSmoke runs every workload at smoke size, untraced and traced,
// twice: every metric named in the tables must come out with its unit,
// no check may fail, and the exact counts and digests must repeat.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		var first WorkloadReport
		for round := 0; round < 2; round++ {
			e2e, err := measureWorkload(w, config{workload: w.name, seed: 1, smoke: true})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			layers, err := measureWorkload(w, config{workload: w.name, seed: 1, smoke: true, trace: true})
			if err != nil {
				t.Fatalf("%s traced: %v", w.name, err)
			}
			wr := mergeReports(e2e, layers)
			if wr.Failed != 0 || wr.Attempted == 0 {
				t.Fatalf("%s: %d of %d operations failed: %v", w.name, wr.Failed, wr.Attempted, wr.Failures)
			}
			for _, d := range endToEnd {
				if m, ok := wr.EndToEnd[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.name, d.name, m, d.unit)
				}
			}
			for _, d := range perLayer {
				if m, ok := wr.PerLayer[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s: per-layer metric %s = %+v, want unit %s", w.name, d.name, m, d.unit)
				}
			}
			if len(wr.PerLayer) != len(perLayer) || len(wr.EndToEnd) != len(endToEnd) {
				t.Errorf("%s: emitted %d+%d metrics, the tables name %d+%d", w.name, len(wr.EndToEnd), len(wr.PerLayer), len(endToEnd), len(perLayer))
			}
			if len(wr.Spans) == 0 {
				t.Errorf("%s: no spans recorded", w.name)
			}
			if round == 0 {
				first = wr
				continue
			}
			if wr.Digest != first.Digest || wr.SpecHash != first.SpecHash {
				t.Errorf("%s: digest %s/%s, then %s/%s", w.name, first.SpecHash, first.Digest, wr.SpecHash, wr.Digest)
			}
			for _, d := range perLayer {
				if d.unit == "count" && wr.PerLayer[d.name].Value != first.PerLayer[d.name].Value {
					t.Errorf("%s: count %s was %v, then %v", w.name, d.name, first.PerLayer[d.name].Value, wr.PerLayer[d.name].Value)
				}
			}
		}
	}
}

// TestCompare checks the three things -compare is for: it refuses
// reports that are not comparable, it flags a median that moved by more
// than the bound, and it calls a row unresolved rather than unchanged
// when the samples spread wider than the bound.
func TestCompare(t *testing.T) {
	report := func(seed int64, speed, q1, q3 float64) string {
		e2e := map[string]Metric{}
		for _, d := range endToEnd {
			e2e[d.name] = Metric{Value: 1, Unit: d.unit}
		}
		e2e["sim_s_per_wall_s"] = Metric{Value: speed, Unit: "1/s", Q1: q1, Q3: q3, N: 20}
		path := t.TempDir() + "/r.json"
		err := writeReport(path, Report{
			Manifest:  Manifest{NProc: 2, GOMAXPROCS: 2, Seed: seed},
			Workloads: []WorkloadReport{{Name: "mesh_seq", SpecHash: "h", Digest: "d", Attempted: 1, EndToEnd: e2e}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := report(1, 100, 99, 101)
	var out strings.Builder
	if err := compareReports(&out, base, report(1, 98, 97, 99)); err != nil {
		t.Errorf("2 %% slower, bound 25 %%: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareReports(&out, base, report(1, 60, 59, 61)); err == nil || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("40 %% slower passed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareReports(&out, base, report(1, 60, 40, 80)); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread of 67 %% was resolved: %v\n%s", err, out.String())
	}
	if err := compareReports(&out, base, report(2, 100, 99, 101)); err == nil {
		t.Error("reports at different seeds were compared")
	}
}
