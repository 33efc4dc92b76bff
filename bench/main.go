// Command bench is the repository's benchmark: five canonical workloads
// measured end to end in simulated seconds per wall second, and beneath
// them a per-layer cost ladder. See README.md in this directory.
//
//	bash bench/run.sh                                  every workload, both passes
//	bash bench/run.sh --workload mesh_seq --seed 2     one workload, end-to-end metrics
//	bash bench/run.sh --workload mesh_seq --trace 1    one workload, per-layer metrics
//	bash bench/run.sh -compare a.json b.json           two reports side by side
//
// It drives the simulator only through public functions and changes no
// file outside this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"abc/internal/exp"
)

// Metric is one reported number. Timings are medians over the samples
// taken in the run; Min, Max, Q1, Q3 and N describe those samples. At
// the 10 to 30 samples a run takes no tail percentile has ten samples
// beyond it, so none is reported.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// Manifest says what ran where, so two reports are only compared when
// they are comparable.
type Manifest struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
	// Degraded marks a host with fewer than two cores: mesh_shard2's
	// two shards then share one, and its numbers measure the scheduler.
	Degraded bool `json:"degraded,omitempty"`
}

// WorkloadReport is everything one workload produced.
type WorkloadReport struct {
	Name     string  `json:"name"`
	SpecHash string  `json:"spec_hash"`
	Digest   string  `json:"digest"`
	WallS    float64 `json:"wall_s"`
	Reps     int     `json:"reps"`
	// HostSpeedIndex is how much slower than the reference host this
	// one ran during the reps (1.2: 20 % slower). The end-to-end time
	// metrics are already corrected by it; multiply a speed by it, or
	// divide a time, to have the raw measurement back.
	HostSpeedIndex float64           `json:"host_speed_index"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	Failures       []string          `json:"failures,omitempty"`
	EndToEnd       map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer       map[string]Metric `json:"per_layer,omitempty"`
	Spans          []Span            `json:"spans"`
}

// Report is the output JSON.
type Report struct {
	Manifest  Manifest         `json:"manifest"`
	Workloads []WorkloadReport `json:"workloads"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all of them, each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "seconds to keep taking timed reps")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from untraced reps; 1: per-layer metrics from rungs and traced passes")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, one rep: checks the plumbing, measures nothing")
	flag.StringVar(&cfg.out, "out", "", "also write the full report (metrics, manifest, spans, digests) to this file")
	compare := flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	flag.Parse()
	cfg.trace = trace != 0

	// At most two threads compute, and only mesh_shard2 uses the second.
	runtime.GOMAXPROCS(2)
	exp.Parallelism = 1

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files")
		} else {
			err = compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case cfg.workload == "":
		err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func manifest(cfg config) Manifest {
	m := Manifest{
		Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	if m.NProc < 2 {
		m.Degraded = true
		fmt.Fprintln(os.Stderr, "bench: WARNING: fewer than 2 cores; mesh_shard2 is oversubscribed and the report is flagged degraded")
	}
	return m
}

// runOne measures one workload in this process and prints, as the last
// line of standard output, the result object the driver reads.
func runOne(cfg config) error {
	w := findWorkload(cfg.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	wr, err := measureWorkload(w, cfg)
	if err != nil {
		return err
	}
	printWorkload(&wr)
	if cfg.out != "" {
		if err := writeReport(cfg.out, Report{Manifest: manifest(cfg), Workloads: []WorkloadReport{wr}}); err != nil {
			return err
		}
	}
	reported := wr.EndToEnd
	if cfg.trace {
		reported = wr.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, map[string]value{}}
	for name, m := range reported {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if wr.Failed != 0 {
		return fmt.Errorf("%s: %d of %d operations failed: %s", w.name, wr.Failed, wr.Attempted, strings.Join(wr.Failures, "; "))
	}
	return nil
}

// runAll re-executes this binary twice per workload (untraced, then
// traced), one process at a time so each has a clean heap and its own
// peak RSS, and merges their reports.
func runAll(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "parts")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	rep := Report{Manifest: manifest(cfg)}
	var failed []string
	for _, w := range workloads {
		var parts [2]WorkloadReport
		for trace := range parts {
			part := fmt.Sprintf("%s/%s.%d.json", tmp, w.name, trace)
			args := []string{"--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(trace), "-out", part}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var one Report
			if err := readReport(part, &one); err != nil {
				return fmt.Errorf("%s --trace %d: %v (%v)", w.name, trace, err, runErr)
			}
			if runErr != nil {
				failed = append(failed, w.name)
			}
			parts[trace] = one.Workloads[0]
		}
		rep.Workloads = append(rep.Workloads, mergeReports(parts[0], parts[1]))
	}
	if cfg.out != "" {
		if err := writeReport(cfg.out, rep); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("checks failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

// mergeReports folds the traced process's report into the untraced
// one's. The two ran the same inputs, so their digests must agree.
func mergeReports(a, b WorkloadReport) WorkloadReport {
	if a.Digest != b.Digest || a.SpecHash != b.SpecHash {
		a.Failed++
		a.Failures = append(a.Failures, fmt.Sprintf("untraced process digest %s/%s, traced process %s/%s", a.SpecHash, a.Digest, b.SpecHash, b.Digest))
	}
	a.Attempted += b.Attempted
	a.Failed += b.Failed
	a.Failures = append(a.Failures, b.Failures...)
	a.WallS += b.WallS
	a.PerLayer = b.PerLayer
	a.Spans = append(a.Spans, b.Spans...)
	return a
}

func writeReport(path string, r Report) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string, r *Report) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("%s: no workloads in report", path)
	}
	return nil
}

// printWorkload prints every metric by name with its unit.
func printWorkload(wr *WorkloadReport) {
	fmt.Printf("== %s  spec %s  digest %s  reps %d  wall %.1fs  host speed index %.3f  failed %d/%d\n",
		wr.Name, wr.SpecHash, wr.Digest, wr.Reps, wr.WallS, wr.HostSpeedIndex, wr.Failed, wr.Attempted)
	for _, f := range wr.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	show := func(defs []metricDef, ms map[string]Metric) {
		for _, d := range defs {
			m, ok := ms[d.name]
			if !ok {
				continue
			}
			fmt.Printf("   %-28s %14.6g %-6s", d.name, m.Value, m.Unit)
			if m.Max > 0 {
				fmt.Printf(" median of %d, min %.6g, max %.6g", m.N, m.Min, m.Max)
			} else if m.N > 0 {
				fmt.Printf(" median of %d batches", m.N)
			}
			fmt.Println()
		}
	}
	show(endToEnd, wr.EndToEnd)
	show(perLayer, wr.PerLayer)
	if wr.PerLayer != nil {
		printLadder(wr)
	}
}

// printLadder shows where the median rep's wall time went: each module's
// attributed share (its count on this workload times its rung) and the
// residual no rung accounts for.
func printLadder(wr *WorkloadReport) {
	wall := wr.PerLayer["sim.wall_ns_per_event"].Value * wr.PerLayer["sim.events"].Value / 1e9
	if wall <= 0 {
		return
	}
	fmt.Printf("   ladder (share of the median rep's %.3f s):", wall)
	for _, d := range perLayer {
		if mod, ok := strings.CutSuffix(d.name, ".attributed_s"); ok {
			fmt.Printf(" %s %.1f%%", mod, 100*wr.PerLayer[d.name].Value/wall)
		}
	}
	fmt.Printf(" residual %.1f%%\n", 100*wr.PerLayer["exp.ladder_residual_frac"].Value)
}
