package exp

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"abc/internal/metrics"
	"abc/internal/sim"
)

// gobBytes serializes v so "byte-identical" is checked literally.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob: %v", err)
	}
	return buf.Bytes()
}

// TestParallelDeterminismFig9 is the harness determinism contract: for a
// fixed seed the parallel fan-out must produce results byte-identical to
// the sequential path.
func TestParallelDeterminismFig9(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()

	schemes := []string{"ABC", "Cubic", "Cubic+Codel"}
	traces := []string{"Verizon1", "TMobile1"}
	const dur = 4 * sim.Second

	Parallelism = 1
	seq, err := fig9Bars(Params{Schemes: schemes, Dur: dur, Seed: 1}, traces)
	if err != nil {
		t.Fatal(err)
	}
	Parallelism = 8
	par, err := fig9Bars(Params{Schemes: schemes, Dur: dur, Seed: 1}, traces)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel fig9Bars diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	// Byte-identical over a canonical (trace, scheme)-ordered flattening
	// (gob of the map itself would vary with Go's map iteration order).
	if !bytes.Equal(gobBytes(t, flatten(seq)), gobBytes(t, flatten(par))) {
		t.Fatal("parallel fig9Bars not byte-identical to sequential")
	}
	// And re-running in parallel is self-consistent.
	par2, err := fig9Bars(Params{Schemes: schemes, Dur: dur, Seed: 1}, traces)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, flatten(par)), gobBytes(t, flatten(par2))) {
		t.Fatal("two parallel fig9Bars runs diverged")
	}
}

// flatten lays a BarsResult's cells out in deterministic order.
func flatten(b *BarsResult) []metrics.Summary {
	var out []metrics.Summary
	for _, tr := range b.Traces {
		for _, sch := range b.Schemes {
			out = append(out, b.Cells[tr][sch])
		}
	}
	return out
}

// TestParallelDeterminismFig12 covers the (load, run) aggregation order:
// concatenated per-run rate vectors must match the sequential sweep.
func TestParallelDeterminismFig12(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()

	cfg := Fig12Config{Runs: 3, Duration: 6 * sim.Second, Loads: []float64{0.125, 0.25}, Seed: 1}
	Parallelism = 1
	seq, err := fig12WeightPolicy("maxmin", cfg)
	if err != nil {
		t.Fatal(err)
	}
	Parallelism = 6
	par, err := fig12WeightPolicy("maxmin", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel Fig12 diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestForEachErrorIsDeterministic: the lowest-index error wins regardless
// of completion order.
func TestForEachErrorIsDeterministic(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	Parallelism = 4
	errA := &testErr{"a"}
	errB := &testErr{"b"}
	err := forEachCell(10, nil, func(i int) error {
		switch i {
		case 3:
			return errB
		case 7:
			return errA
		}
		return nil
	})
	if err != errB {
		t.Fatalf("got %v, want the index-3 error", err)
	}
}

type testErr struct{ s string }

func (e *testErr) Error() string { return e.s }
