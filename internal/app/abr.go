// ABR video client: a bitrate ladder, chunk downloads over one
// persistent flow, a playback-buffer model with rebuffer accounting, and
// two adaptation policies — buffer-based (BBA-style, the default) and
// rate-based (harmonic-mean throughput prediction over the last k chunk
// downloads). Quality decisions react to the transport purely through
// chunk download times, so the client exercises any congestion-control
// scheme the harness binds underneath.
package app

import (
	"abc/internal/metrics"
	"abc/internal/sim"
)

// ABRConfig parameterizes the video client. Zero fields take defaults.
type ABRConfig struct {
	// LadderKbps is the ascending bitrate ladder (default a 240p–1080p
	// style ladder: 300, 750, 1200, 2850, 4300 kbit/s).
	LadderKbps []float64 `spec:"ladder_kbps"`
	// ChunkS is the chunk duration in seconds of video (default 2). One
	// buffered chunk (re)starts playback.
	ChunkS float64 `spec:"chunk_s"`
	// MaxBufS caps the playback buffer; the client pauses requests when
	// the next chunk would overflow it (default 16).
	MaxBufS float64 `spec:"max_buf_s"`
	// Policy selects the adaptation policy: "buffer" (BBA, the default)
	// or "rate" (throughput prediction). The rate policy predicts the
	// next chunk's throughput as the harmonic mean of the last
	// HistoryChunks download rates — the harmonic mean is dominated by
	// the slow samples, so one bad chunk pulls the prediction down
	// immediately and the client downshifts before the buffer drains —
	// and requests the highest rung at or below SafetyFactor times the
	// prediction.
	Policy string `spec:"policy"`
	// HistoryChunks is the rate policy's prediction window in chunks
	// (default 5).
	HistoryChunks int `spec:"history_chunks"`
	// SafetyFactor scales the rate prediction before the ladder lookup
	// (default 0.9).
	SafetyFactor float64 `spec:"safety"`
}

// Policy names.
const (
	PolicyBuffer = "buffer"
	PolicyRate   = "rate"
)

// abrReservoirS and abrCushionS are the BBA policy's corner points in
// seconds of buffered video: at or below the reservoir the client
// requests the lowest rung, at or above the cushion the highest, and in
// between it maps the buffer linearly across the ladder.
const (
	abrReservoirS float64 = 4
	abrCushionS   float64 = 12
)

// withDefaults fills zero fields.
func (c ABRConfig) withDefaults() ABRConfig {
	if len(c.LadderKbps) == 0 {
		c.LadderKbps = []float64{300, 750, 1200, 2850, 4300}
	}
	if c.ChunkS <= 0 {
		c.ChunkS = 2
	}
	if c.MaxBufS <= 0 {
		c.MaxBufS = 16
	}
	if c.Policy == "" {
		c.Policy = PolicyBuffer
	}
	if c.HistoryChunks <= 0 {
		c.HistoryChunks = 5
	}
	if c.SafetyFactor <= 0 {
		c.SafetyFactor = 0.9
	}
	return c
}

// ABR is one video session. Construct with NewABR.
type ABR struct {
	s   *sim.Simulator
	t   Transport
	cfg ABRConfig

	startAt     sim.Time
	lastAt      sim.Time
	bufS        float64 // seconds of video buffered
	playing     bool
	startupDone bool
	downloading bool
	curIdx      int      // rung of the chunk being (or last) downloaded
	reqAt       sim.Time // when the current download was requested
	// rates is the rate policy's sliding window of measured download
	// throughputs (kbit/s), most recent last, at most HistoryChunks long.
	rates []float64

	chunks   int
	switches int
	sumKbps  float64
	playedS  float64
	rebufS   float64
	startupS float64
	finished bool
}

// NewABR builds a video client over the transport.
func NewABR(s *sim.Simulator, t Transport, cfg ABRConfig) *ABR {
	return &ABR{s: s, t: t, cfg: cfg.withDefaults()}
}

// Start implements App: begin the session and request the first chunk.
func (a *ABR) Start(now sim.Time) {
	a.startAt = now
	a.lastAt = now
	a.request(now)
}

// chunkBytes is the transfer size of one chunk at ladder rung idx.
func (a *ABR) chunkBytes(idx int) int {
	n := int(a.cfg.LadderKbps[idx] * 1000 * a.cfg.ChunkS / 8)
	if n < 1 {
		n = 1
	}
	return n
}

// policy picks the next chunk's ladder rung.
func (a *ABR) policy() int {
	if a.cfg.Policy == PolicyRate {
		return a.ratePolicy()
	}
	return a.bufferPolicy()
}

// bufferPolicy maps the current buffer level to a ladder rung (BBA):
// lowest rung in the reservoir, highest above the cushion, linear in
// between.
func (a *ABR) bufferPolicy() int {
	top := len(a.cfg.LadderKbps) - 1
	switch {
	case a.bufS <= abrReservoirS:
		return 0
	case a.bufS >= abrCushionS:
		return top
	}
	frac := (a.bufS - abrReservoirS) / (abrCushionS - abrReservoirS)
	idx := int(frac * float64(top+1))
	if idx > top {
		idx = top
	}
	return idx
}

// ratePolicy requests the highest rung whose bitrate fits under the
// safety-scaled harmonic mean of the recent download throughputs. With
// no samples yet it starts conservatively at the lowest rung.
func (a *ABR) ratePolicy() int {
	pred := a.predictKbps()
	if pred <= 0 {
		return 0
	}
	budget := a.cfg.SafetyFactor * pred
	idx := 0
	for i, kbps := range a.cfg.LadderKbps {
		if kbps <= budget {
			idx = i
		}
	}
	return idx
}

// predictKbps is the harmonic mean of the sliding rate window (0 with
// no samples).
func (a *ABR) predictKbps() float64 {
	if len(a.rates) == 0 {
		return 0
	}
	var inv float64
	for _, r := range a.rates {
		inv += 1 / r
	}
	return float64(len(a.rates)) / inv
}

// recordRate measures one finished download and slides the window.
func (a *ABR) recordRate(bytes int, took sim.Time) {
	if took <= 0 {
		return
	}
	kbps := float64(bytes) * 8 / 1000 / took.Seconds()
	a.rates = append(a.rates, kbps)
	if len(a.rates) > a.cfg.HistoryChunks {
		a.rates = a.rates[1:]
	}
}

// advance settles playback accounting up to now: while playing the
// buffer drains in real time, and any deficit is a stall.
func (a *ABR) advance(now sim.Time) {
	dt := (now - a.lastAt).Seconds()
	a.lastAt = now
	if dt <= 0 {
		return
	}
	if a.playing {
		if a.bufS >= dt {
			a.bufS -= dt
			a.playedS += dt
		} else {
			a.playedS += a.bufS
			a.rebufS += dt - a.bufS
			a.bufS = 0
			a.playing = false
		}
	} else if a.startupDone {
		a.rebufS += dt
	}
}

// request picks the next chunk's bitrate and queues its download.
func (a *ABR) request(now sim.Time) {
	idx := a.policy()
	if a.chunks > 0 && idx != a.curIdx {
		a.switches++
	}
	a.curIdx = idx
	a.downloading = true
	a.reqAt = now
	a.t.Queue(a.chunkBytes(idx))
}

// OnTransferComplete implements App: one chunk finished downloading.
func (a *ABR) OnTransferComplete(now sim.Time) {
	if !a.downloading {
		return
	}
	a.downloading = false
	a.recordRate(a.chunkBytes(a.curIdx), now-a.reqAt)
	a.advance(now)
	a.chunks++
	a.sumKbps += a.cfg.LadderKbps[a.curIdx]
	a.bufS += a.cfg.ChunkS
	if !a.playing && a.bufS >= a.cfg.ChunkS {
		a.playing = true
		if !a.startupDone {
			a.startupDone = true
			a.startupS = (now - a.startAt).Seconds()
		}
	}
	// Buffer-cap pacing: wait until the next chunk fits before asking
	// for it; while playing the wait drains exactly the overflow.
	if over := a.bufS + a.cfg.ChunkS - a.cfg.MaxBufS; over > 0 && a.playing {
		a.s.After(sim.FromSeconds(over), func() {
			if a.finished {
				return
			}
			a.advance(a.s.Now())
			a.request(a.s.Now())
		})
		return
	}
	a.request(now)
}

// Finish implements App: flush playback accounting at end of run.
func (a *ABR) Finish(now sim.Time) {
	if a.finished {
		return
	}
	a.finished = true
	a.advance(now)
}

// QoE summarizes the session.
func (a *ABR) QoE() metrics.QoE {
	q := metrics.QoE{
		Chunks:    a.chunks,
		Switches:  a.switches,
		StartupS:  a.startupS,
		PlayedS:   a.playedS,
		RebufferS: a.rebufS,
	}
	if a.chunks > 0 {
		q.MeanKbps = a.sumKbps / float64(a.chunks)
	}
	if tot := a.playedS + a.rebufS; tot > 0 {
		q.RebufferRatio = a.rebufS / tot
	}
	return q
}
