// Request-response RPC client: an exponential think time between calls
// and a fixed (or jittered) response size per call, downloaded over one
// persistent flow. Each call's completion time is a flow-completion-time
// sample for the interactive-traffic metrics.
package app

import (
	"math/rand"

	"abc/internal/metrics"
	"abc/internal/sim"
)

// RPCConfig parameterizes an RPC client. Zero fields take defaults. The
// tagged fields are the scenario file's; the others are wiring.
type RPCConfig struct {
	// ThinkMean is the mean exponential think time between a response
	// completing and the next request (default 200 ms).
	ThinkMean sim.Time `spec:"think_ms"`
	// RespBytes is the response size per call (default 100 KB). The
	// request itself is abstracted into the think time: the simulated
	// flow carries response bytes only.
	RespBytes int `spec:"resp_kb"`
	// FCT, when non-nil, receives every call's completion time; sharing
	// one recorder across clients pools a scenario's whole RPC
	// population. Nil gives the client a private recorder.
	FCT *metrics.DelayRecorder
	// MeasureFrom excludes calls issued before this time from the FCT
	// recorder (the harness sets it to the scenario warmup). Calls and
	// Bytes still count the whole session.
	MeasureFrom sim.Time
}

// withDefaults fills zero fields.
func (c RPCConfig) withDefaults() RPCConfig {
	if c.ThinkMean <= 0 {
		c.ThinkMean = 200 * sim.Millisecond
	}
	if c.RespBytes <= 0 {
		c.RespBytes = 100 * 1024
	}
	if c.FCT == nil {
		c.FCT = &metrics.DelayRecorder{}
	}
	return c
}

// RPC is one request-response client. Construct with NewRPC.
type RPC struct {
	s   *sim.Simulator
	t   Transport
	cfg RPCConfig
	rng *rand.Rand

	issuedAt sim.Time
	pending  bool
	finished bool

	// Calls counts completed request-response exchanges.
	Calls int
	// Bytes counts response bytes across completed calls.
	Bytes int64
}

// NewRPC builds an RPC client over the transport. rng must be the
// simulation RNG so think times replay deterministically.
func NewRPC(s *sim.Simulator, t Transport, cfg RPCConfig, rng *rand.Rand) *RPC {
	return &RPC{s: s, t: t, cfg: cfg.withDefaults(), rng: rng}
}

// FCT exposes the completion-time recorder (shared or private).
func (r *RPC) FCT() *metrics.DelayRecorder { return r.cfg.FCT }

// Start implements App: issue the first request immediately.
func (r *RPC) Start(now sim.Time) { r.issue(now) }

func (r *RPC) issue(now sim.Time) {
	r.issuedAt = now
	r.pending = true
	r.t.Queue(r.cfg.RespBytes)
}

// OnTransferComplete implements App: record the call and think.
func (r *RPC) OnTransferComplete(now sim.Time) {
	if !r.pending {
		return
	}
	r.pending = false
	r.Calls++
	r.Bytes += int64(r.cfg.RespBytes)
	if r.issuedAt >= r.cfg.MeasureFrom {
		r.cfg.FCT.Add(now - r.issuedAt)
	}
	think := sim.FromSeconds(r.rng.ExpFloat64() * r.cfg.ThinkMean.Seconds())
	r.s.After(think, func() {
		if r.finished {
			return
		}
		r.issue(r.s.Now())
	})
}

// Finish implements App: stop issuing new requests.
func (r *RPC) Finish(sim.Time) { r.finished = true }
