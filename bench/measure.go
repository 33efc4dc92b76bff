package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"abc/internal/abc"
	"abc/internal/exp"
	"abc/internal/explicit"
	"abc/internal/metrics"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// Span is one timed call the benchmark made: set-up, a rep, an exp.Run
// or a rung. Spans are recorded by the benchmark around its own calls
// and written to the output JSON; the simulator records none.
type Span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartS   float64 `json:"start_s"` // since process start
	EndS     float64 `json:"end_s"`
}

// spanLog keeps spans in memory until the process writes its report.
type spanLog struct {
	t0       time.Time
	workload string
	spans    []Span
}

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, Span{
		ID: len(l.spans) + 1, Parent: parent, Name: name, Workload: l.workload,
		StartS: time.Since(l.t0).Seconds(),
	})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].EndS = time.Since(l.t0).Seconds() }

// counters are the exact counts one pass over a workload produced, read
// from the simulator's public counters after each exp.Run. They repeat
// exactly for a fixed seed, so two commits compare on them exactly.
type counters struct {
	cells       int
	simS        float64
	events      uint64
	pending     int // events still queued when the runs ended, weighted by their events
	shardRounds uint64
	shardMax    uint64 // busiest shard's events
	shards      int

	unroutedDrops             int64
	enqueued, dequeued, drops int64
	// dequeued packets by discipline and by link model, for attribution
	deqDropTail, deqCoDel, deqPIE, deqABC, deqXCP int64
	deqTraceLink, deqRateLink                     int64
	deqBytes, linkBytes                           int64
	links                                         int
	marks                                         int64 // every CatMark decision
	accel, brake, echoDemoted                     int64

	sent, acked, retx, lost int64
	abcAcks                 int64
	delaySamples            int64
	wireFrac                float64 // share of spec edges with a propagation wire

	fluidSteps    int64
	fluidServedMB float64
	fluidShare    float64

	spawned, completed, rejected int
	fct                          metrics.DelayRecorder

	normTput, normP95 float64
}

// pass is one run of every spec of a workload, in order.
type pass struct {
	wall, cpu time.Duration
	counters
	digest    string
	attempted int
	failed    int
	failures  []string
}

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// digester hashes result fields without allocating per field, so the
// digest does not show up in the allocation metrics.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}
func (d *digester) i64(v int64)   { d.u64(uint64(v)) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass runs every spec through exp.Run, timing only those calls, and
// checks each result. One exp.Run is one operation: it fails if it
// returns an error or its result breaks an invariant.
func runPass(w *workload, specs []exp.Spec, log *spanLog, parent int) pass {
	var p pass
	d := digester{h: sha256.New()}
	var bars *exp.BarsResult
	for i := range specs {
		spec := &specs[i]
		p.attempted++
		sp := log.begin("exp.Run", parent)
		c0, t0 := cpuTime(), time.Now()
		res, pooled, err := exp.Run(*spec)
		p.wall += time.Since(t0)
		p.cpu += cpuTime() - c0
		log.end(sp)
		if err != nil {
			p.failed++
			p.fail("spec %d: %v", i, err)
			continue
		}
		before := len(p.failures)
		p.observe(w, spec, res, &d)
		if len(p.failures) > before {
			p.failed++
		}
		// A single flow over a single trace link is a Table 1 cell.
		if len(spec.Links) == 1 && spec.Links[0].Trace != nil && len(spec.Flows) == 1 {
			if bars == nil {
				bars = &exp.BarsResult{Schemes: exp.Schemes, Cells: map[string]map[string]metrics.Summary{}}
			}
			tr, scheme := spec.Links[0].Trace.Name, spec.Flows[0].Scheme
			if bars.Cells[tr] == nil {
				bars.Cells[tr] = map[string]metrics.Summary{}
				bars.Traces = append(bars.Traces, tr)
			}
			bars.Cells[tr][scheme] = res.Summary(scheme, pooled)
		}
	}
	if bars != nil {
		for _, row := range exp.SummaryTable(bars) {
			if row.Scheme == "Cubic+Codel" {
				p.normTput, p.normP95 = row.NormTput, row.NormDelay
			}
		}
	}
	d.u64(p.events)
	p.digest = fmt.Sprintf("%x", d.h.Sum(nil))[:16]
	return p
}

// observe folds one result into the pass: digest, counters, invariants.
func (p *pass) observe(w *workload, spec *exp.Spec, res *exp.Result, d *digester) {
	p.cells++
	p.simS += spec.Duration.Seconds()

	var events uint64
	pending := 0
	if c := res.Graph.Coordinator(); c != nil {
		p.shards = c.Shards()
		p.shardRounds += c.Rounds()
		for i := 0; i < c.Shards(); i++ {
			ex := c.Shard(i).Executed()
			events += ex
			pending += c.Shard(i).Pending()
			if ex > p.shardMax {
				p.shardMax = ex
			}
		}
	} else {
		events = res.Graph.S.Executed()
		pending = res.Graph.S.Pending()
	}
	// Heap depth of the pass: each run's pending events at its end,
	// weighted by the events it executed.
	p.pending = int((uint64(p.pending)*p.events + uint64(pending)*events) / (p.events + events))
	p.events += events

	for i := range res.Flows {
		f := &res.Flows[i]
		d.i64(f.Bytes)
		d.f64(f.TputMbps)
		d.f64(f.Delay.Mean())
		d.f64(f.Delay.P95())
		d.i64(f.Lost)
		d.i64(f.Retx)
		p.sent += f.Endpoint.SentPackets
		p.acked += f.Endpoint.AckedPackets
		p.retx += f.Endpoint.RetxPackets
		p.lost += f.Endpoint.LostPackets
		if _, ok := f.Algorithm.(*abc.Sender); ok {
			p.abcAcks += f.Endpoint.AckedPackets
		}
		// Each delivery feeds the flow's Delay and QDelay recorders and,
		// unsharded, the pooled one.
		p.delaySamples += int64(f.Delay.Count() + f.QDelay.Count())
		if !res.Graph.Sharded() {
			p.delaySamples += int64(f.Delay.Count())
		}
	}
	for i := range res.Workloads {
		wl := &res.Workloads[i]
		d.i64(int64(wl.Spawned))
		d.i64(int64(wl.Completed))
		d.i64(wl.Bytes)
		d.f64(wl.FCT.Mean())
		d.f64(wl.FCT.P95())
		p.spawned += wl.Spawned
		p.completed += wl.Completed
		p.rejected += wl.Rejected
		p.fct.Merge(&wl.FCT)
		p.delaySamples += int64(wl.FCT.Count() + wl.QDelay.Count())
		if wl.Spawned != wl.Completed+wl.Active+wl.Rejected {
			p.fail("workload %s: spawned %d != completed %d + active %d + rejected %d",
				wl.Class, wl.Spawned, wl.Completed, wl.Active, wl.Rejected)
		}
	}

	// Disciplines, each paired with the link model that drains it.
	observeQ := func(q qdisc.Qdisc, ls *exp.LinkSpec) {
		var st qdisc.Stats
		switch q := q.(type) {
		case *qdisc.DropTail:
			st = q.Stats
			p.deqDropTail += st.DequeuedPackets
		case *qdisc.CoDel:
			st = q.Stats
			p.deqCoDel += st.DequeuedPackets
		case *qdisc.PIE:
			st = q.Stats
			p.deqPIE += st.DequeuedPackets
		case *abc.Router:
			st = q.Stats
			p.deqABC += st.DequeuedPackets
			p.accel += q.AccelMarked
			p.brake += q.BrakeMarked
			p.echoDemoted += q.EchoDemoted
			p.marks += q.AccelMarked + q.BrakeMarked + q.EchoAccelKept + q.EchoDemoted + q.LiePromoted
		case *explicit.XCPRouter:
			st = q.Stats
			p.deqXCP += st.DequeuedPackets
		default:
			p.fail("qdisc %T has no counters the benchmark knows how to read", q)
		}
		p.enqueued += st.EnqueuedPackets
		p.dequeued += st.DequeuedPackets
		p.drops += st.DroppedPackets
		p.deqBytes += st.DequeuedBytes
		if ls.Trace != nil {
			p.deqTraceLink += st.DequeuedPackets
		} else {
			p.deqRateLink += st.DequeuedPackets
		}
	}
	// A mesh lists its disciplines by edge name (and again, in edge
	// order, in Qdiscs); a chain lists them per link.
	wires := 0
	for i := range spec.Edges {
		e := &spec.Edges[i]
		if e.Link.Delay > 0 {
			wires++
		}
		if q := res.EdgeQdiscs[e.Name]; q != nil {
			observeQ(q, &e.Link)
		}
	}
	if len(spec.Edges) > 0 {
		p.wireFrac = float64(wires) / float64(len(spec.Edges))
	} else {
		for i, q := range res.Qdiscs {
			observeQ(q, &spec.Links[i])
		}
		for i, q := range res.ReverseQdiscs {
			observeQ(q, &spec.ReverseLinks[i])
		}
	}
	// Every packet a discipline hands its link, the link delivers.
	for i := 0; i < res.Graph.Edges(); i++ {
		if l := res.Graph.Edge(i).Link; l != nil {
			p.links++
			p.linkBytes += l.DeliveredBytes()
		}
	}

	p.unroutedDrops += res.Drops
	if w.static && res.Drops != 0 {
		p.fail("static workload dropped %d unrouted packets", res.Drops)
	}

	for i := range res.Backgrounds {
		b := &res.Backgrounds[i]
		d.f64(b.ServedMB)
		d.f64(b.MeanShare)
		p.fluidServedMB += b.ServedMB
		p.fluidShare += b.MeanShare
		bs := &spec.Background[i]
		step := bs.Step
		if step <= 0 {
			step = 10 * sim.Millisecond
		}
		p.fluidSteps += int64((spec.Duration - bs.Start) / step)
		// Fluid conservation, to a byte of float rounding per step.
		accounted := b.ServedMB + b.DroppedMB + b.FinalQueueBytes/1e6
		if math.Abs(b.OfferedMB-accounted) > 1e-6*math.Max(1, b.OfferedMB) {
			p.fail("fluid %s: offered %.6f MB != served %.6f + dropped %.6f + queued %.6f",
				b.Edge, b.OfferedMB, b.ServedMB, b.DroppedMB, b.FinalQueueBytes/1e6)
		}
	}
}

// check compares the pass against the workload's reference pass: same
// digest and counters, and the per-pass conservation identities.
func (p *pass) check(ref *pass, what string) {
	n := len(p.failures)
	// A rate link holds the packet it is serialising when the clock
	// stops: dequeued, not yet delivered.
	if inService := p.deqBytes - p.linkBytes; inService < 0 || inService > int64(p.links)*packet.MTU {
		p.fail("%s: %d links delivered %d bytes but their disciplines dequeued %d", what, p.links, p.linkBytes, p.deqBytes)
	}
	if ref != nil && p.digest != ref.digest {
		p.fail("%s: digest %s differs from the reference %s", what, p.digest, ref.digest)
	}
	// A pass-level failure cannot be pinned on one exp.Run.
	if len(p.failures) > n {
		p.failed = p.attempted
	}
}

// tracedPass reruns the workload with the flight recorder attached at
// mask and returns the pass with the number of events recorded. A small
// ring is enough: Total counts whatever the capacity.
func tracedPass(w *workload, specs []exp.Spec, mask obs.Cat, log *spanLog, parent int) (pass, uint64) {
	rec := obs.NewRecorder(1<<10, mask)
	exp.EnableTracing(rec)
	defer exp.EnableTracing(nil)
	p := runPass(w, specs, log, parent)
	return p, rec.Total()
}

// summarise is the median of samples with their quartiles and range.
// With the 10 to 30 samples a run takes, no tail percentile has ten
// samples beyond it, so none is given.
func summarise(xs []float64, unit string) Metric {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return Metric{Unit: unit}
	}
	// Linear interpolation between order statistics.
	at := func(q float64) float64 {
		pos := q * float64(n-1)
		i := int(pos)
		if i+1 >= n {
			return s[n-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return Metric{Value: at(0.5), Unit: unit, Min: s[0], Max: s[n-1], Q1: at(0.25), Q3: at(0.75), N: n}
}

// timeSetup measures set-up: synthesise the inputs, then compile and
// wire every spec by running it for 1 ms of simulated time. Set-ups that
// take microseconds are repeated until 10 ms have gone by and averaged,
// so that one sample is not at the mercy of the clock and the caches.
func timeSetup(w *workload, seed int64, smoke bool) (time.Duration, error) {
	t0 := time.Now()
	n := 0
	for n == 0 || time.Since(t0) < 10*time.Millisecond {
		specs, _ := w.build(seed, smoke)
		for i := range specs {
			specs[i].Duration = sim.Millisecond
			if _, _, err := exp.Run(specs[i]); err != nil {
				return 0, fmt.Errorf("set-up of spec %d: %w", i, err)
			}
		}
		n++
	}
	return time.Since(t0) / time.Duration(n), nil
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
