// Observability wiring for the harness: the metrics sampler a run with
// RunOptions.Metrics set hangs on its barrier hook, once per simulated
// second. The flight recorder (RunOptions.Trace) is attached by compile.
// Both are passive: neither schedules a simulator event, draws from an
// RNG or changes state the simulation can observe, so golden digests are
// byte-identical with either or both on (TestGoldenTracingInvariance),
// and an observed run may share the process with unobserved ones
// (TestRunOptionsArePerRun).
package exp

import (
	"fmt"
	"sync/atomic"

	"abc/internal/abc"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/sim"
)

// metricsPeriod is how often, in virtual time, a metered run samples.
const metricsPeriod = sim.Second

// traceRec is the recorder the package-level Run attaches
// (EnableTracing); nil = tracing off.
var traceRec atomic.Pointer[obs.Recorder]

// EnableTracing sets the flight recorder the package-level Run attaches
// to every run from now on; pass nil to turn it back off. Kept for
// bench/; deleted when bench passes RunOptions (ROADMAP 2(g)).
func EnableTracing(r *obs.Recorder) { traceRec.Store(r) }

// runSampler captures everything one scenario publishes per sample into
// the metrics registry: per-edge queue depth/bytes (plus ABC tokens and
// mark counts on ABC bottlenecks), per-flow cwnd/pacing-rate (plus
// ReverseBrakes for ABC senders), the ledger's drops by cause, and the
// well-known obs.MetricSimSeconds / obs.MetricSimEvents read by the
// progress line. The coordinator calls it at a barrier once per
// metricsPeriod (and the harness once more at the end of a run whose
// last tick fell short of it). Gauges show the most recent sample from
// whichever cell sharing the registry sampled last, while counters
// aggregate across cells.
type runSampler struct {
	reg *obs.Registry
	c   *compiled
	// prevEvents and prevBooks track the executed-event count and the
	// ledger already published, so obs.MetricSimEvents and
	// abc_drops_total aggregate correctly across parallel cells.
	prevEvents uint64
	prevBooks  packet.Books
}

// newRunSampler builds the sampler that publishes one scenario into
// reg, or nil when reg is nil. It must be called after the graph's edges
// are built.
func newRunSampler(c *compiled, reg *obs.Registry) *runSampler {
	if reg == nil {
		return nil
	}
	rs := &runSampler{reg: reg, c: c}
	reg.Help("abc_queue_pkts", "Instantaneous bottleneck queue depth in packets.")
	reg.Help("abc_queue_bytes", "Instantaneous bottleneck queue depth in bytes.")
	reg.Help("abc_tokens", "ABC router token-bucket level (Algorithm 1).")
	reg.Help("abc_marks_total", "ABC marking decisions by kind.")
	reg.Help("abc_qdisc_drops_total", "Packets rejected by the bottleneck discipline.")
	reg.Help("abc_flow_cwnd_pkts", "Congestion window in packets.")
	reg.Help("abc_flow_rate_bps", "Pacing rate in bits/sec (0 = ACK-clocked).")
	reg.Help("abc_flow_reverse_brakes", "Brakes the ABC sender consumed off the reverse path.")
	reg.Help("abc_drops_total", "Packets dropped, by cause.")
	return rs
}

// sample publishes one snapshot at virtual time now.
func (rs *runSampler) sample(now sim.Time) {
	reg, g := rs.reg, rs.c.g
	reg.Gauge(obs.MetricSimSeconds).Set(now.Seconds())

	events := g.S.Executed()
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
