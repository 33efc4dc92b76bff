package app

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"abc/internal/sim"
)

func TestReplayRoundTripExact(t *testing.T) {
	// Synthesize a log, serialize it, parse it back, and replay it: the
	// recovered (time, bytes) sequence must match the original exactly.
	times := []sim.Time{
		5 * sim.Millisecond,
		250 * sim.Millisecond,
		251 * sim.Millisecond,
		1900 * sim.Millisecond,
		7 * sim.Second,
	}
	sizes := []int{1, 40960, 123456, 40960, 9 * 1024 * 1024}
	orig, err := NewReplay(times, sizes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteReplay(&buf); err != nil {
		t.Fatal(err)
	}
	rp, err := ParseReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Len() != len(times) {
		t.Fatalf("parsed %d entries, want %d", rp.Len(), len(times))
	}
	// Replaying through the Arrival/SizeDist interfaces in the order the
	// workload runner uses them (gap, then size) reconstructs the log.
	var at sim.Time
	for i := range times {
		gap := rp.Next(nil)
		at += gap
		if at != times[i] {
			t.Fatalf("arrival %d replayed at %v, want %v", i, at, times[i])
		}
		if got := rp.Draw(nil); got != sizes[i] {
			t.Fatalf("arrival %d drew %d bytes, want %d", i, got, sizes[i])
		}
	}
	if gap := rp.Next(nil); gap != sim.Time(math.MaxInt64) {
		t.Fatalf("exhausted replay yielded gap %v, want unreachable", gap)
	}
}

func TestReplaySkippedDrawStaysAligned(t *testing.T) {
	// If a spawn is rejected (MaxActive cap) Draw is never called for
	// that arrival; the next Next/Draw pair must still see the next
	// entry, not a stale one.
	rp, err := NewReplay(
		[]sim.Time{sim.Second, 2 * sim.Second, 3 * sim.Second},
		[]int{111, 222, 333})
	if err != nil {
		t.Fatal(err)
	}
	rp.Next(nil) // arrival 0, Draw skipped
	rp.Next(nil) // arrival 1
	if got := rp.Draw(nil); got != 222 {
		t.Fatalf("after a skipped draw, Draw = %d, want 222", got)
	}
}

func TestParseReplayRejectsMalformedLogs(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", "# only a comment\n"},
		{"no comma", "1.0 500\n"},
		{"bad time", "x,500\n"},
		{"bad bytes", "1.0,many\n"},
		{"negative time", "-1.0,500\n"},
		{"decreasing times", "2.0,500\n1.0,500\n"},
		{"zero bytes", "1.0,0\n"},
	}
	for _, tc := range cases {
		if _, err := ParseReplay(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Comments, blanks and whitespace are tolerated.
	rp, err := ParseReplay(strings.NewReader("# log\n\n 0.5 , 100 \n1.5,200\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Len() != 2 {
		t.Fatalf("parsed %d entries, want 2", rp.Len())
	}
	if at, b := rp.Entry(0); at != 500*sim.Millisecond || b != 100 {
		t.Fatalf("entry 0 = (%v, %d)", at, b)
	}
}
