package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(4, CatAll)
	for i := 0; i < 10; i++ {
		r.Emit(int64(i), EvEnqueue, 0, int32(i), 0, 0)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := r.Overwritten(); got != 6 {
		t.Fatalf("Overwritten = %d, want 6", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	for i, e := range snap {
		want := int64(6 + i) // oldest retained first
		if e.T != want || e.Flow != int32(want) {
			t.Fatalf("snap[%d] = {T:%d Flow:%d}, want T=Flow=%d", i, e.T, e.Flow, want)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRecorder(8, CatAll)
	r.Emit(1, EvAccel, 2, 3, 4, 5)
	r.Emit(2, EvBrake, 2, 3, 4, 5)
	if r.Overwritten() != 0 {
		t.Fatalf("Overwritten = %d, want 0", r.Overwritten())
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Kind != EvAccel || snap[1].Kind != EvBrake {
		t.Fatalf("unexpected snapshot %+v", snap)
	}
}

func TestMaskFiltering(t *testing.T) {
	r := NewRecorder(8, CatMark)
	if r.Enabled(CatPacket) {
		t.Fatal("CatPacket should be disabled")
	}
	if !r.Enabled(CatMark) {
		t.Fatal("CatMark should be enabled")
	}
	r.Emit(1, EvEnqueue, 0, 0, 0, 0) // filtered by mask
	r.Emit(2, EvBrake, 0, 0, 0, 0)
	if got := r.Total(); got != 1 {
		t.Fatalf("Total = %d, want 1 (enqueue must be filtered)", got)
	}
	var nilRec *Recorder
	if nilRec.Enabled(CatAll) {
		t.Fatal("nil recorder must report disabled")
	}
	nilRec.Emit(1, EvBrake, 0, 0, 0, 0) // must not panic
	if nilRec.Snapshot() != nil || nilRec.Total() != 0 || nilRec.Cap() != 0 {
		t.Fatal("nil recorder accessors must be zero")
	}
}

func TestParseMask(t *testing.T) {
	m, err := ParseMask("packet,hop")
	if err != nil || m != CatPacket|CatHop {
		t.Fatalf("ParseMask(packet,hop) = %v, %v", m, err)
	}
	if m, err = ParseMask("all"); err != nil || m != CatAll {
		t.Fatalf("ParseMask(all) = %v, %v", m, err)
	}
	if m, err = ParseMask(""); err != nil || m != CatAll {
		t.Fatalf("ParseMask(\"\") = %v, %v", m, err)
	}
	if _, err = ParseMask("bogus"); err == nil {
		t.Fatal("ParseMask(bogus) should error")
	}
}

func TestKindCoverage(t *testing.T) {
	for k := Kind(1); k < kindCount; k++ {
		if kindInfo[k].name == "" {
			t.Errorf("kind %d has no name", k)
		}
		if kindInfo[k].cat == 0 {
			t.Errorf("kind %d (%s) has no category", k, k)
		}
	}
}

func TestDumps(t *testing.T) {
	r := NewRecorder(4, CatAll)
	r.Emit(100, EvHop, 7, 3, 42, 0)
	r.Emit(200, EvQdiscDrop, 1, 3, 0, 0)

	var jb strings.Builder
	if err := r.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"t":100,"kind":"hop","src":7,"flow":3,"a":42,"b":0}` + "\n" +
		`{"t":200,"kind":"qdisc_drop","src":1,"flow":3,"a":0,"b":0}` + "\n"
	if jb.String() != wantJSON {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", jb.String(), wantJSON)
	}
}

// TestRecorderConcurrent exercises Emit/Snapshot under -race.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64, CatAll)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Emit(int64(i), EvEnqueue, int32(w), int32(i), 0, 0)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	if got := r.Total(); got != 4000 {
		t.Fatalf("Total = %d, want 4000", got)
	}
}

// TestRegistryConcurrent checks snapshot consistency while writers are
// racing: every observed value must be a multiple of 3 because the
// writer always adds 3 in one atomic op.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter(fmt.Sprintf(`abc_test_total{w="%d"}`, w))
			g := reg.Gauge(fmt.Sprintf(`abc_test_gauge{w="%d"}`, w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(3)
				g.Set(float64(i))
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for _, s := range reg.Snapshot() {
			if s.IsCounter && int64(s.Value)%3 != 0 {
				t.Fatalf("torn counter read: %s = %v", s.Name, s.Value)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("abc_x_total")
	c2 := reg.Counter("abc_x_total")
	if c1 != c2 {
		t.Fatal("Counter must return the same handle for the same name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge must panic")
		}
	}()
	reg.Gauge("abc_x_total")
}

// TestPromExpositionGolden locks the exposition format byte-for-byte.
func TestPromExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Help("abc_queue_pkts", "Instantaneous queue depth in packets.")
	reg.Help("abc_drops_total", "Packets dropped.")
	reg.Gauge(`abc_queue_pkts{edge="fwd0"}`).Set(17)
	reg.Gauge(`abc_queue_pkts{edge="rev0"}`).Set(2.5)
	reg.Counter(`abc_drops_total{edge="fwd0"}`).Add(5)
	reg.Gauge("abc_run_sim_seconds").Set(1.25)

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP abc_drops_total Packets dropped.
# TYPE abc_drops_total counter
abc_drops_total{edge="fwd0"} 5
# HELP abc_queue_pkts Instantaneous queue depth in packets.
# TYPE abc_queue_pkts gauge
abc_queue_pkts{edge="fwd0"} 17
abc_queue_pkts{edge="rev0"} 2.5
# TYPE abc_run_sim_seconds gauge
abc_run_sim_seconds 1.25
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func BenchmarkEmit(b *testing.B) {
	r := NewRecorder(1<<16, CatAll)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(int64(i), EvHop, 1, 2, 3, 4)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Enabled(CatHop) {
			r.Emit(int64(i), EvHop, 1, 2, 3, 4)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("abc_bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
