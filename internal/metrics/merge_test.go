package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// sameDistribution fails unless a and b agree exactly on count, extremes
// and every integer percentile, and on the mean to float rounding.
func sameDistribution(t *testing.T, what string, a, b *DelayRecorder) {
	t.Helper()
	if a.Count() != b.Count() {
		t.Fatalf("%s: count %d != %d", what, a.Count(), b.Count())
	}
	if math.Abs(a.Mean()-b.Mean()) > 1e-9*math.Abs(b.Mean()) {
		t.Fatalf("%s: mean %v != %v", what, a.Mean(), b.Mean())
	}
	for p := 0.0; p <= 100; p++ {
		if x, y := a.Percentile(p), b.Percentile(p); x != y {
			t.Fatalf("%s: p%g %v != %v", what, p, x, y)
		}
	}
}

// TestDelayRecorderMerge: a recorder is a function of the multiset of
// samples it saw. Any split of a stream into parts — empty ones, raw
// ones (<= rawLimit samples) and bucketed ones — recorded separately
// and merged in any order and any grouping equals the one recorder that
// saw the whole stream, leaves its sources as they were, and goes on
// taking samples as that recorder does.
func TestDelayRecorderMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// The sizes of consecutive parts of the stream.
	splits := map[string][]int{
		"all-raw":          {3, 0, 400, 250},
		"raw-sum-spills":   {700, 0, 600, 1},
		"raw-and-bucketed": {0, 12, 5_000, 999, 1_001, 2_500},
		"bucketed":         {4_000, 20_000, 1_500},
		"round-robin":      nil, // 20 000 samples dealt to 7 parts in turn
	}
	for name, sizes := range splits {
		n := 20_000
		if sizes != nil {
			n = 0
			for _, s := range sizes {
				n += s
			}
		}
		samples := make([]float64, n)
		for i := range samples {
			// Heavy-tailed-ish mixture, the shape delay data takes,
			// with exact zeros in it.
			v := rng.ExpFloat64() * 20
			switch {
			case rng.Float64() < 0.1:
				v += 200 * rng.Float64()
			case rng.Float64() < 0.01:
				v = 0
			}
			samples[i] = v
		}
		var whole DelayRecorder
		for _, v := range samples {
			whole.AddSample(v)
		}
		var parts []*DelayRecorder
		if sizes == nil {
			for k := 0; k < 7; k++ {
				parts = append(parts, new(DelayRecorder))
			}
			for i, v := range samples {
				parts[i%7].AddSample(v)
			}
		} else {
			rest := samples
			for _, s := range sizes {
				d := new(DelayRecorder)
				for _, v := range rest[:s] {
					d.AddSample(v)
				}
				rest = rest[s:]
				parts = append(parts, d)
			}
		}
		for trial := 0; trial < 4; trial++ {
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			// Left fold, then a two-level grouping of the same order:
			// commutative and associative.
			var fold DelayRecorder
			for _, p := range parts {
				fold.Merge(p)
			}
			sameDistribution(t, name+" fold", &fold, &whole)
			var left, right, tree DelayRecorder
			for i, p := range parts {
				if i < len(parts)/2 {
					left.Merge(p)
				} else {
					right.Merge(p)
				}
			}
			tree.Merge(&right)
			tree.Merge(&left)
			sameDistribution(t, name+" tree", &tree, &whole)

			// Still a stream: the same further samples keep them equal.
			var cont DelayRecorder
			for _, v := range samples {
				cont.AddSample(v)
			}
			for i := 0; i < 1_500; i++ {
				v := rng.ExpFloat64() * 30
				fold.AddSample(v)
				cont.AddSample(v)
			}
			sameDistribution(t, name+" continued", &fold, &cont)
		}
		// The sources are unchanged: merging them again still works.
		var again DelayRecorder
		for _, p := range parts {
			again.Merge(p)
		}
		sameDistribution(t, name+" sources reused", &again, &whole)
	}
}

// TestDelayRecorderMergeEmpty: merging with empty recorders on either
// side is the identity.
func TestDelayRecorderMergeEmpty(t *testing.T) {
	var empty, d DelayRecorder
	d.AddSample(3)
	d.AddSample(5)
	d.Merge(&empty)
	if d.Count() != 2 || d.Mean() != 4 {
		t.Fatalf("merge with empty changed recorder: count=%d mean=%v", d.Count(), d.Mean())
	}
	var dst DelayRecorder
	dst.Merge(&d)
	if dst.Count() != 2 || dst.Percentile(100) != 5 {
		t.Fatalf("merge into empty lost samples: count=%d max=%v", dst.Count(), dst.Percentile(100))
	}
}
