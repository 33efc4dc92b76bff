package cc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abc/internal/packet"
	"abc/internal/sim"
)

// The timeline golden pins what an Endpoint does and when, one layer
// below the experiment goldens: for each scenario it hashes the ordered
// log of every data packet handed to Out, every OnRTO/OnCongestion, every
// Src.Available/OnSend call and every completion, each with its
// simulation time, plus the final counters. testdata/timeline.json was
// generated from the commit before the endpoint's 100 Hz housekeeping
// tick became an on-demand wake, so it is the periodic tick's behaviour
// that is pinned: any change to when the endpoint looks at its timers or
// polls its source shows up here as a changed hash. To find out what
// moved, run both builds with -dump-timeline and diff the logs.
var (
	updateTimeline = flag.Bool("update-timeline", false, "rewrite testdata/timeline.json from this build")
	dumpTimeline   = flag.String("dump-timeline", "", "write each scenario's full log into this directory")
)

const timelineFile = "testdata/timeline.json"

// timeline is the ordered log of one scenario.
type timeline struct {
	s   *sim.Simulator
	buf bytes.Buffer
}

func (tl *timeline) logf(format string, args ...any) {
	fmt.Fprintf(&tl.buf, "%d ", int64(tl.s.Now()))
	fmt.Fprintf(&tl.buf, format, args...)
	tl.buf.WriteByte('\n')
}

func (tl *timeline) hash() string {
	sum := sha256.Sum256(tl.buf.Bytes())
	return hex.EncodeToString(sum[:12])
}

// tlAlg logs the loss signals an algorithm receives.
type tlAlg struct {
	Algorithm
	tl *timeline
}

func (a *tlAlg) OnCongestion(now sim.Time, e *Endpoint) {
	a.tl.logf("congestion")
	a.Algorithm.OnCongestion(now, e)
}

func (a *tlAlg) OnRTO(now sim.Time, e *Endpoint) {
	a.tl.logf("rto")
	a.Algorithm.OnRTO(now, e)
}

// tlPacedAlg is tlAlg for an algorithm that paces (embedding the
// Algorithm interface alone would hide its PacingRate).
type tlPacedAlg struct {
	tlAlg
	p Pacer
}

func (a *tlPacedAlg) PacingRate(now sim.Time) (float64, bool) { return a.p.PacingRate(now) }

// tlSrc logs every question the endpoint asks its source. Available on a
// source that is Done is not logged: "no further data ever" makes the
// answer unobservable (only Fixed is ever Done, and its Available reads
// a field), and an endpoint is free not to ask.
type tlSrc struct {
	Source
	tl *timeline
}

func (s *tlSrc) Available(now sim.Time) bool {
	ok := s.Source.Available(now)
	if !s.Source.Done() {
		s.tl.logf("avail %v", ok)
	}
	return ok
}

func (s *tlSrc) OnSend(now sim.Time, n int) {
	s.tl.logf("onsend %d", n)
	s.Source.OnSend(now, n)
}

// tlRun is one scenario under construction: build fills it in, the
// harness starts the endpoint at startAt and runs until dur.
type tlRun struct {
	s    *sim.Simulator
	tl   *timeline
	pipe *lossyPipe
	alg  Algorithm // default: a fixed window of 8 packets
	src  Source    // default: backlogged
	// drop, if set, swallows the data packets it reports true for.
	drop    func(now sim.Time, p *packet.Packet) bool
	startAt sim.Time
	dur     sim.Time
	// setup, if set, runs after the endpoint exists and before Start.
	setup func(ep *Endpoint)
}

// outage drops every data packet sent in [from, to).
func outage(from, to sim.Time) func(sim.Time, *packet.Packet) bool {
	return func(now sim.Time, _ *packet.Packet) bool { return now >= from && now < to }
}

var timelineScenarios = []struct {
	name  string
	build func(r *tlRun)
}{
	// Three and more backed-off RTOs: nothing gets through for 2.5 s.
	{"outage", func(r *tlRun) {
		r.pipe.delay = 20 * sim.Millisecond
		r.drop = outage(sim.Second, 3500*sim.Millisecond)
		r.dur = 6 * sim.Second
	}},
	// A short flow, left running after it completes.
	{"fixed", func(r *tlRun) {
		r.pipe.delay = 10 * sim.Millisecond
		r.alg = &fixedWindow{w: 4}
		r.src = NewFixed(20 << 10)
		r.dur = 2 * sim.Second
	}},
	// The same flow stopped by its completion callback, with one packet
	// lost on the way so that it ends in a retransmission.
	{"fixed-stop", func(r *tlRun) {
		r.pipe.delay = 10 * sim.Millisecond
		r.alg = &fixedWindow{w: 4}
		r.src = NewFixed(20 << 10)
		r.pipe.dropSet[13] = true
		r.setup = func(ep *Endpoint) {
			done := ep.OnComplete
			ep.OnComplete = func(now sim.Time) { done(now); ep.Stop() }
		}
		r.dur = 2 * sim.Second
	}},
	// Source-dry nearly all the time: the housekeeping instants are what
	// refills the token bucket, so they decide when packets leave.
	{"ratelimited", func(r *tlRun) {
		r.pipe.delay = 20 * sim.Millisecond
		r.alg = &fixedWindow{w: 10}
		r.src = NewRateLimited(1e6)
		r.dur = 3 * sim.Second
	}},
	// The same source behind a window it does fill: the flow alternates
	// between window-limited and source-dry.
	{"ratelimited-w1", func(r *tlRun) {
		r.pipe.delay = 20 * sim.Millisecond
		r.alg = &fixedWindow{w: 1}
		r.src = NewRateLimited(1e6)
		r.dur = 3 * sim.Second
	}},
	{"onoff", func(r *tlRun) {
		r.pipe.delay = 15 * sim.Millisecond
		r.alg = &fixedWindow{w: 6}
		r.src = &OnOff{Start: 500 * sim.Millisecond, OnFor: 303300 * sim.Microsecond, OffFor: 200 * sim.Millisecond}
		r.dur = 3 * sim.Second
	}},
	// A gate flipped from outside at instants off the housekeeping grid,
	// one of them inside an outage.
	{"gated", func(r *tlRun) {
		r.pipe.delay = 15 * sim.Millisecond
		r.alg = &fixedWindow{w: 6}
		g := &Gated{}
		r.src = g
		for i, at := range []sim.Time{103700, 555100, 1200300, 1777700, 2400000, 2404000} {
			on := i%2 == 0
			r.s.At(at*sim.Microsecond, func() { g.On = on })
		}
		r.drop = outage(1300*sim.Millisecond, 1700*sim.Millisecond)
		r.dur = 3 * sim.Second
	}},
	// Two transfers on one persistent flow, a second apart: the second
	// flight is declared lost by a timer that was never reset (see
	// checkRTO), which the app goldens depend on.
	{"idle", func(r *tlRun) {
		r.pipe.delay = 25 * sim.Millisecond
		r.alg = &fixedWindow{w: 4}
		src := NewFixed(3000)
		r.src = src
		r.setup = func(ep *Endpoint) {
			done := ep.OnComplete
			first := true
			ep.OnComplete = func(now sim.Time) {
				done(now)
				if !first {
					return
				}
				first = false
				r.s.After(sim.Second, func() {
					src.Remaining += 3000
					ep.BeginTransfer()
				})
			}
		}
		r.dur = 3 * sim.Second
	}},
	// A paced sender: the pacer polls for itself, only the RTO check is
	// housekeeping's.
	{"bbr-outage", func(r *tlRun) {
		r.pipe.delay = 20 * sim.Millisecond
		r.pipe.bps = 12e6
		r.alg = NewBBR()
		r.drop = outage(sim.Second, 2200*sim.Millisecond)
		r.dur = 4 * sim.Second
	}},
	// The grid is anchored at Start, not at zero.
	{"offgrid-start", func(r *tlRun) {
		r.pipe.delay = 20 * sim.Millisecond
		r.pipe.bps = 8e6
		r.startAt = 3700 * sim.Microsecond
		r.drop = outage(500*sim.Millisecond, 1300*sim.Millisecond)
		r.dur = 3 * sim.Second
	}},
	// Every ACK lands exactly on a housekeeping instant, its delivery
	// scheduled 50 ms earlier, and one flight comes back only after the
	// timeout has expired: 250 ms after the ACK before it, to the
	// nanosecond, and again 40 ms later than that. Whether the timeout
	// fires depends on whether housekeeping or the ACK runs first at that
	// instant.
	{"grid-acks", func(r *tlRun) {
		r.pipe.delay = 50 * sim.Millisecond
		r.alg = &fixedWindow{w: 4}
		r.pipe.extra = func(now sim.Time, _ *packet.Packet) sim.Time {
			switch {
			case now == 3*sim.Second:
				return 150 * sim.Millisecond
			case now >= 4*sim.Second && now < 4100*sim.Millisecond:
				return 190 * sim.Millisecond
			}
			return 0
		}
		r.dur = 6 * sim.Second
	}},
}

var timelineMinRTOs = []sim.Time{250 * sim.Millisecond, 15 * sim.Millisecond, 5 * sim.Millisecond}

// timelineScenario returns the named scenario's build function.
func timelineScenario(t *testing.T, name string) func(*tlRun) {
	for _, sc := range timelineScenarios {
		if sc.name == name {
			return sc.build
		}
	}
	t.Fatalf("no timeline scenario %q", name)
	return nil
}

// runTimeline runs one scenario at one MinRTO and returns its log.
func runTimeline(build func(*tlRun), minRTO sim.Time) *timeline {
	s := sim.New(1)
	tl := &timeline{s: s}
	r := &tlRun{s: s, tl: tl, pipe: newLossyPipe(s, 0), alg: &fixedWindow{w: 8}}
	build(r)

	var alg Algorithm = &tlAlg{Algorithm: r.alg, tl: tl}
	if p, ok := r.alg.(Pacer); ok {
		alg = &tlPacedAlg{tlAlg: tlAlg{Algorithm: r.alg, tl: tl}, p: p}
	}
	out := packet.NodeFunc(func(p *packet.Packet) {
		tl.logf("tx %d retx=%v", p.Seq, p.Retx)
		if r.drop != nil && r.drop(s.Now(), p) {
			p.Release()
			return
		}
		r.pipe.Recv(p)
	})
	ep := NewEndpoint(s, 0, out, alg)
	r.pipe.ep = ep
	ep.MinRTO = minRTO
	if r.src != nil {
		ep.Src = &tlSrc{Source: r.src, tl: tl}
	}
	ep.OnComplete = func(sim.Time) { tl.logf("complete") }
	if r.setup != nil {
		r.setup(ep)
	}
	s.At(r.startAt, ep.Start)
	s.RunUntil(r.dur)
	tl.logf("final sent=%d retx=%d lost=%d ackedbytes=%d", ep.SentPackets, ep.RetxPackets, ep.LostPackets, ep.AckedBytes)
	return tl
}

func TestEndpointTimelineGolden(t *testing.T) {
	got := map[string]string{}
	for _, sc := range timelineScenarios {
		for _, minRTO := range timelineMinRTOs {
			name := fmt.Sprintf("%s/minrto=%dms", sc.name, minRTO/sim.Millisecond)
			tl := runTimeline(sc.build, minRTO)
			got[name] = tl.hash()
			if *dumpTimeline != "" {
				file := filepath.Join(*dumpTimeline, fmt.Sprintf("%s-%dms.log", sc.name, minRTO/sim.Millisecond))
				if err := os.WriteFile(file, tl.buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if *updateTimeline {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(timelineFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(timelineFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", timelineFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d scenarios, the test runs %d", timelineFile, len(want), len(got))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: timeline hash %s, want %s", name, h, want[name])
		}
	}
}

// TestTimelineScenariosBite checks that the scenarios reach the states
// they are named for, so that a hash that keeps matching means something.
func TestTimelineScenariosBite(t *testing.T) {
	count := func(name string, minRTO sim.Time, line string) int {
		tl := runTimeline(timelineScenario(t, name), minRTO)
		return bytes.Count(tl.buf.Bytes(), []byte(" "+line+"\n"))
	}
	std := 250 * sim.Millisecond
	if n := count("outage", std, "rto"); n < 3 {
		t.Errorf("outage: %d RTOs, want at least three backed-off ones", n)
	}
	if n := count("bbr-outage", std, "rto"); n < 1 {
		t.Errorf("bbr-outage: no RTO")
	}
	if n := count("fixed", std, "complete"); n != 1 {
		t.Errorf("fixed: %d completions, want 1", n)
	}
	if n := count("fixed-stop", std, "complete"); n != 1 {
		t.Errorf("fixed-stop: %d completions, want 1", n)
	}
	if n := count("ratelimited", std, "avail false"); n < 100 {
		t.Errorf("ratelimited: source polled dry %d times, want a poll per housekeeping instant", n)
	}
	if n := count("gated", std, "avail false"); n < 50 {
		t.Errorf("gated: source polled dry %d times", n)
	}
	// The ACK that arrives on the instant the timeout expires wins the
	// tie (its delivery was scheduled first); the one 40 ms later loses.
	if n := count("grid-acks", std, "rto"); n != 1 {
		t.Errorf("grid-acks: %d RTOs, want exactly 1", n)
	}
}

// TestSpuriousRTOAfterIdle pins a known defect rather than fixing it:
// checkRTO measures from lastAckAt, which sending does not refresh, so a
// flow that was idle for longer than its RTO declares the next flight
// lost at the first housekeeping instant after sending it. ROADMAP item
// 19(a) has the fix, and checkRTO's comment what it moves: 11 timeline
// hashes, three goldens (fig11-cross-traffic, app-rpc, hybrid) and 20
// runs of scripts/cli_diff.sh.
func TestSpuriousRTOAfterIdle(t *testing.T) {
	log := runTimeline(timelineScenario(t, "idle"), 250*sim.Millisecond).buf.String()
	if n := strings.Count(log, " rto\n"); n != 1 {
		t.Errorf("%d RTOs on a clean pipe; the pinned behaviour is 1", n)
	}
	if want := " final sent=6 retx=2 lost=2 ackedbytes=6000\n"; !strings.HasSuffix(log, want) {
		t.Errorf("two 2-packet transfers a second apart ended with\n%s\nwant%s", log[strings.LastIndex(log[:len(log)-1], "\n")+1:], want)
	}
}
