// Data sources: rate-limited (application-limited flows, §6.6), on-off
// (Fig. 11 cross traffic) and fixed-size (Fig. 12 short flows). A nil
// Source is the backlogged one.
package cc

import "abc/internal/sim"

// RateLimited releases data at a fixed application rate via a token
// bucket, modelling the paper's application-limited flows that "send
// traffic at an aggregate of 1 Mbit/s" (Fig. 13).
type RateLimited struct {
	// Bps is the application data rate in bits/sec.
	Bps float64

	credit float64
	lastAt sim.Time
	inited bool
}

// rateLimitedBurst is the least cap on a RateLimited source's
// accumulated credit in bytes (two packets). A source-limited flow is
// polled only on ACKs and on the housekeeping grid, so the cap is raised
// to one housekeeping tick of data wherever that is larger: a smaller
// cap would throw away credit between polls and deliver less than Bps.
const rateLimitedBurst float64 = 3000

// NewRateLimited returns a source producing bps of application data.
func NewRateLimited(bps float64) *RateLimited {
	return &RateLimited{Bps: bps}
}

func (r *RateLimited) refill(now sim.Time) {
	if !r.inited {
		r.inited = true
		r.lastAt = now
		return
	}
	r.credit += r.Bps / 8 * (now - r.lastAt).Seconds()
	burst := max(rateLimitedBurst, r.Bps/8*housekeepingTick.Seconds())
	if r.credit > burst {
		r.credit = burst
	}
	r.lastAt = now
}

// Available implements Source.
func (r *RateLimited) Available(now sim.Time) bool {
	r.refill(now)
	return r.credit >= 1 // a packet may be sent once any credit exists
}

// OnSend implements Source.
func (r *RateLimited) OnSend(now sim.Time, n int) {
	r.refill(now)
	r.credit -= float64(n)
}

// Done implements Source.
func (r *RateLimited) Done() bool { return false }

// OnOff alternates between sending and silent periods (cross traffic in
// Fig. 11's yellow/grey regions).
type OnOff struct {
	// Schedule lists alternating (on, off) durations from time Start;
	// beyond the schedule the source repeats the last state forever.
	Start  sim.Time
	OnFor  sim.Time
	OffFor sim.Time
}

// Available implements Source.
func (o *OnOff) Available(now sim.Time) bool {
	if now < o.Start {
		return false
	}
	cycle := o.OnFor + o.OffFor
	if cycle <= 0 {
		return true
	}
	phase := (now - o.Start) % cycle
	return phase < o.OnFor
}

// OnSend implements Source.
func (o *OnOff) OnSend(sim.Time, int) {}

// Done implements Source.
func (o *OnOff) Done() bool { return false }

// Fixed carries a finite number of bytes then completes (short flows).
type Fixed struct {
	Remaining int
}

// NewFixed returns a source with n bytes to send.
func NewFixed(n int) *Fixed { return &Fixed{Remaining: n} }

// Available implements Source.
func (f *Fixed) Available(sim.Time) bool { return f.Remaining > 0 }

// OnSend implements Source.
func (f *Fixed) OnSend(_ sim.Time, n int) { f.Remaining -= n }

// Done implements Source.
func (f *Fixed) Done() bool { return f.Remaining <= 0 }

// Gated is a source that an experiment can switch on and off explicitly.
type Gated struct{ On bool }

// Available implements Source.
func (g *Gated) Available(sim.Time) bool { return g.On }

// OnSend implements Source.
func (g *Gated) OnSend(sim.Time, int) {}

// Done implements Source.
func (g *Gated) Done() bool { return false }
