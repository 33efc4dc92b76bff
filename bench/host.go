package main

import "time"

// The sandbox this benchmark runs in shares its cores: over minutes the
// same binary on the same inputs runs up to 30 % slower and then
// recovers, which is more than the changes the benchmark is there to
// judge. So every run also times a small kernel that uses none of the
// repository's code, interleaved with its reps, and reports its wall-
// and CPU-time metrics corrected by the result: a time is divided by the
// host speed index, the median ratio of the kernel's time to its time on
// an undisturbed host. The index is reported beside the corrected
// numbers (host_speed_index in the report, host.speed_index among the
// per-layer metrics), so the raw times can be had back.
//
// The kernel is a binary min-heap of 65536 timestamps (512 KB) under
// replace-min: the simulator's inner loop in miniature, compare-and-move
// work over a working set the size of a busy event queue. Of the kernels
// tried (heaps of 32 KB, 512 KB and 4 MB, a dependent walk over 2 and
// 8 MB, a map under insert and delete) it tracked the workloads best.
// Measured on this host over two stretches of twelve minutes, as the
// distance between the quartiles of 60 chunk medians of cellular_sweep
// and mesh_seq reps: 7 % and 6 % raw against 4 % and 4 % corrected in a
// quiet stretch, 17 % and 19 % raw against 7 % and 8 % corrected (by the
// 32 KB heap) in a noisy one. A walk or a map as the kernel made things
// worse than no correction at all.
const (
	probeHeap = 1 << 16
	probeOps  = 400_000
	// probeRefS is what probeOps operations take on this host class
	// when nothing else is running on it.
	probeRefS = 0.0466
)

// replaceMin replaces the smallest element of the binary min-heap h by
// v and restores the heap order: a pop followed by a push.
func replaceMin(h []int64, v int64) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if v <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
}

// hostProbe holds the kernel's heap between samples.
type hostProbe struct{ stamps []int64 }

func newHostProbe() *hostProbe {
	p := &hostProbe{stamps: make([]int64, probeHeap)}
	for i := range p.stamps {
		p.stamps[i] = int64(i) // ascending is heap-ordered
	}
	return p
}

// sample runs the kernel once (about 50 ms) and returns how much slower
// than the reference the host is right now: 1 is the reference speed,
// 1.2 a host taking 20 % longer.
func (p *hostProbe) sample() float64 {
	t0 := time.Now()
	for i := 0; i < probeOps; i++ {
		replaceMin(p.stamps, p.stamps[0]+int64(1000+(i*7919)%probeHeap))
	}
	return time.Since(t0).Seconds() / probeRefS
}
