// Observability wiring for the harness: process-wide switches that
// attach a flight recorder and a metrics registry to every scenario the
// harness runs. Both are off by default and both are passive: neither
// schedules a simulator event, draws from an RNG or changes state the
// simulation can observe, so golden digests are byte-identical with
// either or both enabled (TestGoldenTracingInvariance). The metrics
// sampler is one of the run's barrier readers (runAndMeasure).
package exp

import (
	"fmt"
	"sync/atomic"

	"abc/internal/abc"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
)

var (
	// traceRec is the recorder every new scenario graph attaches
	// (EnableTracing); nil = tracing off.
	traceRec atomic.Pointer[obs.Recorder]
	// metReg / metPeriodNs configure run-metrics sampling
	// (EnableMetrics); nil registry = metrics off.
	metReg      atomic.Pointer[obs.Registry]
	metPeriodNs atomic.Int64
)

// EnableTracing attaches a flight recorder to every scenario the
// harness runs from now on: the topology graph, its links and qdiscs,
// every flow endpoint and the coordinator emit trace events into it,
// filtered by the recorder's category mask. Pass nil to turn tracing
// back off. Safe to call concurrently with running sweeps; cells read
// the switch once at cell start.
func EnableTracing(r *obs.Recorder) { traceRec.Store(r) }

// EnableMetrics publishes live run metrics into reg, sampled every
// period of virtual time: per-edge queue depth/bytes (plus ABC tokens
// and mark counts on ABC bottlenecks), per-flow cwnd/pacing-rate (plus
// ReverseBrakes for ABC senders), the ledger's drops by cause, shard
// synchronization counters, and the well-known obs.MetricSimSeconds /
// obs.MetricSimEvents read by the progress line. Like tracing, sampling
// is passive: the coordinator calls the sampler at a barrier once per
// period (and the harness once more at the end of a run whose last tick
// fell short of it); nothing is scheduled, so results are
// digest-identical with metrics on.
// Gauges show the most recent sample from whichever sweep cell sampled
// last, while counters aggregate across cells. Pass a nil registry to
// turn metrics off.
func EnableMetrics(reg *obs.Registry, period sim.Time) {
	if period <= 0 {
		period = sim.Second
	}
	metPeriodNs.Store(int64(period))
	metReg.Store(reg)
}

// runSampler captures everything one scenario publishes per sample into
// the metrics registry, every period of virtual time.
type runSampler struct {
	reg    *obs.Registry
	period sim.Time
	c      *compiled
	// prevEvents and prevBooks track the executed-event count and the
	// ledger already published, so obs.MetricSimEvents and
	// abc_drops_total aggregate correctly across parallel cells.
	prevEvents uint64
	prevBooks  packet.Books
}

// newRunSampler builds the sampler for one scenario, or nil when
// metrics are off. It must be called after the graph's edges are built.
func newRunSampler(c *compiled) *runSampler {
	reg := metReg.Load()
	if reg == nil {
		return nil
	}
	rs := &runSampler{reg: reg, period: sim.Time(metPeriodNs.Load()), c: c}
	reg.Help("abc_queue_pkts", "Instantaneous bottleneck queue depth in packets.")
	reg.Help("abc_queue_bytes", "Instantaneous bottleneck queue depth in bytes.")
	reg.Help("abc_tokens", "ABC router token-bucket level (Algorithm 1).")
	reg.Help("abc_marks_total", "ABC marking decisions by kind.")
	reg.Help("abc_qdisc_drops_total", "Packets rejected by the bottleneck discipline.")
	reg.Help("abc_flow_cwnd_pkts", "Congestion window in packets.")
	reg.Help("abc_flow_rate_bps", "Pacing rate in bits/sec (0 = ACK-clocked).")
	reg.Help("abc_flow_reverse_brakes", "Brakes the ABC sender consumed off the reverse path.")
	reg.Help("abc_drops_total", "Packets dropped, by cause.")
	reg.Help("abc_shard_rounds_total", "Windows executed by the run's coordinator (at one shard a window ends at each timeline event or sample instant).")
	reg.Help("abc_shard_events_total", "Events executed per shard.")
	reg.Help("abc_shard_horizon_lag_seconds", "How far each shard's horizon trails the furthest shard.")
	reg.Help("abc_shard_busy_seconds", "Wall time the shard's worker spent merging its mail and executing its windows.")
	reg.Help("abc_shard_wait_seconds", "Wall time the shard's worker spent at the barrier and in the coordinator's serial section.")
	reg.Help("abc_shard_mail_total", "Cross-shard messages merged into destination heaps (0 at one shard).")
	return rs
}

// sample publishes one snapshot at virtual time now.
func (rs *runSampler) sample(now sim.Time) {
	reg, g := rs.reg, rs.c.g
	reg.Gauge(obs.MetricSimSeconds).Set(now.Seconds())

	var events uint64
	c := g.Coordinator()
	for i := 0; i < c.Shards(); i++ {
		ex := c.Shard(i).Executed()
		events += ex
		reg.Counter(fmt.Sprintf(`abc_shard_events_total{shard="%d"}`, i)).Store(int64(ex))
		reg.Gauge(fmt.Sprintf(`abc_shard_horizon_lag_seconds{shard="%d"}`, i)).Set(c.HorizonLag(i).Seconds())
		reg.Gauge(fmt.Sprintf(`abc_shard_busy_seconds{shard="%d"}`, i)).Set(c.Busy(i).Seconds())
		reg.Gauge(fmt.Sprintf(`abc_shard_wait_seconds{shard="%d"}`, i)).Set(c.Wait(i).Seconds())
	}
	reg.Counter("abc_shard_rounds_total").Store(int64(c.Rounds()))
	reg.Counter("abc_shard_mail_total").Store(int64(c.Mail()))
	reg.Counter(obs.MetricSimEvents).Add(int64(events - rs.prevEvents))
	rs.prevEvents = events

	for id, q := range rs.c.edgeQ {
		if q == nil {
			continue // wire
		}
		name := g.Edge(id).Name
		reg.Gauge(`abc_queue_pkts{edge="` + name + `"}`).Set(float64(q.Len()))
		reg.Gauge(`abc_queue_bytes{edge="` + name + `"}`).Set(float64(q.Bytes()))
		reg.Counter(`abc_qdisc_drops_total{edge="` + name + `"}`).Store(q.Counters().DroppedPackets)
		if r, ok := q.(*abc.Router); ok {
			reg.Gauge(`abc_tokens{edge="` + name + `"}`).Set(r.Token())
			reg.Counter(`abc_marks_total{edge="` + name + `",kind="accel"}`).Store(r.AccelMarked)
			reg.Counter(`abc_marks_total{edge="` + name + `",kind="brake"}`).Store(r.BrakeMarked)
			reg.Counter(`abc_marks_total{edge="` + name + `",kind="echo_demoted"}`).Store(r.EchoDemoted)
		}
	}

	for i := range rs.c.res.Flows {
		fr := &rs.c.res.Flows[i]
		label := fmt.Sprintf(`{flow="%d"}`, i)
		reg.Gauge("abc_flow_cwnd_pkts" + label).Set(fr.Algorithm.CwndPkts())
		var bps float64
		if pr, ok := fr.Algorithm.(interface {
			PacingRate(now sim.Time) (float64, bool)
		}); ok {
			if v, use := pr.PacingRate(now); use {
				bps = v
			}
		}
		reg.Gauge("abc_flow_rate_bps" + label).Set(bps)
		if s, ok := fr.Algorithm.(*abc.Sender); ok {
			reg.Gauge("abc_flow_reverse_brakes" + label).Set(float64(s.ReverseBrakes))
		}
	}

	books := rs.c.ledger()
	for c := packet.Refused; c < packet.NumCauses; c++ {
		reg.Counter(`abc_drops_total{cause="` + c.String() + `"}`).Add(books.Released[c] - rs.prevBooks.Released[c])
	}
	rs.prevBooks = books
}
