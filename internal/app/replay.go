// Trace-driven workload replay: a recorded (time, bytes) log — one
// transfer request per line — replayed verbatim as an arrival process.
// Unlike the synthetic processes, a replay fixes both halves of the
// workload: its cursor's Next yields the recorded inter-arrival gaps and
// Draw the recorded transfer sizes, so a production trace (or a log
// synthesized by a test) reproduces its exact offered load, burstiness
// included.
package app

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"abc/internal/sim"
)

// Replay is a recorded arrival log as a value: the CSV file it is read
// from. Each Open reads the file afresh into a new cursor.
type Replay struct {
	File string `spec:"file"`
}

// Open implements Arrival: the returned *ReplayLog is also the run's
// SizeDist.
func (r Replay) Open() (Gaps, error) { return LoadReplay(r.File) }

// ReplayLog is a loaded log and one run's cursor over it. It implements
// both Gaps and SizeDist, consuming entries in order: the workload runner
// draws the gap to the next arrival (Next), then that arrival's size
// (Draw). An exhausted log reports an unreachable next arrival, ending
// the process. Times are offsets from the workload's start.
type ReplayLog struct {
	times []sim.Time
	bytes []int

	next int      // entry the next Next will emit
	cur  int      // entry whose size Draw reports
	prev sim.Time // time of the previously emitted entry
}

// NewReplay builds a replay from parallel time/size slices. Times must
// be non-decreasing and sizes positive.
func NewReplay(times []sim.Time, sizes []int) (*ReplayLog, error) {
	if len(times) != len(sizes) {
		return nil, fmt.Errorf("replay: %d times vs %d sizes", len(times), len(sizes))
	}
	for i := range times {
		if times[i] < 0 {
			return nil, fmt.Errorf("replay: entry %d: negative time", i)
		}
		if i > 0 && times[i] < times[i-1] {
			return nil, fmt.Errorf("replay: entry %d: time %v before previous %v", i, times[i], times[i-1])
		}
		if sizes[i] < 1 {
			return nil, fmt.Errorf("replay: entry %d: size %d < 1 byte", i, sizes[i])
		}
	}
	return &ReplayLog{times: times, bytes: sizes}, nil
}

// Len reports the number of recorded arrivals.
func (r *ReplayLog) Len() int { return len(r.times) }

// Entry returns the i-th recorded (time, bytes) pair.
func (r *ReplayLog) Entry(i int) (sim.Time, int) { return r.times[i], r.bytes[i] }

// Next implements Gaps: the gap from the previous arrival to the
// next recorded one, or an unreachable gap once the log is exhausted.
func (r *ReplayLog) Next(*rand.Rand) sim.Time {
	if r.next >= len(r.times) {
		return sim.Time(math.MaxInt64)
	}
	gap := r.times[r.next] - r.prev
	r.prev = r.times[r.next]
	r.cur = r.next
	r.next++
	return gap
}

// Draw implements SizeDist: the size recorded for the arrival Next just
// emitted.
func (r *ReplayLog) Draw(*rand.Rand) int {
	if len(r.bytes) == 0 {
		return 0
	}
	return r.bytes[r.cur]
}

// ParseReplay reads a (time_s, bytes) CSV log: one "seconds,bytes" pair
// per line, '#' comments and blank lines ignored. Times are offsets
// from the workload's start, non-decreasing; sizes are whole bytes.
func ParseReplay(r io.Reader) (*ReplayLog, error) {
	var times []sim.Time
	var sizes []int
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tStr, bStr, ok := strings.Cut(line, ",")
		if !ok {
			return nil, fmt.Errorf("replay: line %d: want \"time_s,bytes\", got %q", lineNo, line)
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(tStr), 64)
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: bad time: %v", lineNo, err)
		}
		b, err := strconv.Atoi(strings.TrimSpace(bStr))
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: bad byte count: %v", lineNo, err)
		}
		times = append(times, sim.FromSeconds(t))
		sizes = append(sizes, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replay: %v", err)
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("replay: log has no entries")
	}
	rp, err := NewReplay(times, sizes)
	if err != nil {
		return nil, err
	}
	return rp, nil
}

// LoadReplay reads a replay log from a file. Only regular files are
// accepted: building a workload calls this on user- (and fuzzer-)
// supplied paths, and a device file like /dev/stdin would block forever.
func LoadReplay(path string) (*ReplayLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("replay: %v", err)
	}
	defer f.Close()
	if st, err := f.Stat(); err != nil {
		return nil, fmt.Errorf("replay: %v", err)
	} else if !st.Mode().IsRegular() {
		return nil, fmt.Errorf("replay: %s is not a regular file", path)
	}
	rp, err := ParseReplay(f)
	if err != nil {
		return nil, fmt.Errorf("replay: %s: %v", path, err)
	}
	return rp, nil
}

// WriteReplay writes the log in the format ParseReplay reads, so
// synthesized workloads round-trip exactly (times have nanosecond
// precision, well past any log's).
func (r *ReplayLog) WriteReplay(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# time_s,bytes")
	for i := range r.times {
		fmt.Fprintf(bw, "%.9f,%d\n", r.times[i].Seconds(), r.bytes[i])
	}
	return bw.Flush()
}
