// Sharded-execution driver: a mesh engineered so its result is
// byte-identical at any shard count, locking the conservative-lookahead
// runtime down in the golden corpus. The topology is a ring of four
// independent bottlenecks — flow k enters at junction j<2k>, crosses its
// own rate bottleneck, and exits one junction into the next pair's
// territory, so every data path (and every direct ACK tail) crosses a
// shard cut at 2 and 4 shards. Determinism across shard counts holds
// because the flows share no queue, no qdisc draws randomness
// (droptail/ABC only), and the reported metrics are all per-flow — fed
// in each flow's own arrival order, which cross-shard handoff preserves
// (mailboxes drain in timestamp order and a flow's packets are totally
// ordered along its path).
package exp

import (
	"fmt"
	"io"
	"strings"

	"abc/internal/sim"
)

// ShardedMeshFlow is one flow's outcome on the sharded-mesh scenario.
type ShardedMeshFlow struct {
	Scheme   string
	Path     string
	Bytes    int64
	TputMbps float64
	MeanMs   float64
	P95Ms    float64
	QMeanMs  float64
	Lost     int64
	Retx     int64
}

// ShardedMeshResult is the outcome of one sharded-mesh run.
type ShardedMeshResult struct {
	// Shards is the shard count the run actually used.
	Shards int
	Flows  []ShardedMeshFlow
	// Drops counts unrouted arrivals (must be zero).
	Drops int64
}

// shardedMeshSpec builds the four-bottleneck ring. Rates and delays are
// deliberately non-round so no two event timestamps coincide by
// construction, keeping the digest insensitive to tie-break differences
// between one shard's heap and the cross-shard mailbox drain.
func shardedMeshSpec(shards int, dur sim.Time, seed int64) Spec {
	rates := []float64{21.7e6, 34.1e6, 27.9e6, 40.3e6}
	schemes := []string{"ABC", "Cubic", "ABC", "Cubic"}
	spec := Spec{
		Seed:     seed,
		Duration: dur,
		RTT:      30 * sim.Millisecond,
		Shards:   shards,
	}
	for j := 0; j < 8; j++ {
		spec.Nodes = append(spec.Nodes, fmt.Sprintf("j%d", j))
	}
	for k := 0; k < 4; k++ {
		spec.Edges = append(spec.Edges,
			EdgeSpec{Name: fmt.Sprintf("bot%d", k),
				From: fmt.Sprintf("j%d", 2*k), To: fmt.Sprintf("j%d", 2*k+1),
				Link: LinkSpec{Rate: rates[k], Qdisc: QdiscSpec{Kind: "auto"},
					Delay: 1700 * sim.Microsecond}},
			EdgeSpec{Name: fmt.Sprintf("hop%d", k),
				From: fmt.Sprintf("j%d", 2*k+1), To: fmt.Sprintf("j%d", (2*k+2)%8),
				Link: LinkSpec{Kind: "wire", Delay: 6100 * sim.Microsecond}},
		)
		spec.Flows = append(spec.Flows, FlowSpec{
			Scheme: schemes[k],
			Path:   []string{fmt.Sprintf("bot%d", k), fmt.Sprintf("hop%d", k)},
		})
	}
	return spec
}

// ShardedMesh runs the four-bottleneck ring with the given shard count
// (<= 1 is one shard). The result is a pure function of
// (dur, seed) alone — TestShardedMeshDigestInvariant and the golden
// corpus hold it byte-identical across shard counts.
func ShardedMesh(shards int, dur sim.Time, seed int64) (*ShardedMeshResult, error) {
	if dur <= 0 {
		dur = 30 * sim.Second
	}
	spec := shardedMeshSpec(shards, dur, seed)
	res, _, err := Run(spec)
	if err != nil {
		return nil, err
	}
	r := &ShardedMeshResult{Shards: shards, Drops: res.Drops}
	for f := range res.Flows {
		fr := &res.Flows[f]
		r.Flows = append(r.Flows, ShardedMeshFlow{
			Scheme:   fr.Scheme,
			Path:     strings.Join(spec.Flows[f].Path, ">"),
			Bytes:    fr.Bytes,
			TputMbps: fr.TputMbps,
			MeanMs:   fr.Delay.Mean(),
			P95Ms:    fr.Delay.P95(),
			QMeanMs:  fr.QDelay.Mean(),
			Lost:     fr.Lost,
			Retx:     fr.Retx,
		})
	}
	return r, nil
}

// shardedRuns runs the ring at 1, 2 and 4 shards and fails unless every
// flow's result is identical to the one-shard run.
func shardedRuns(p Params) ([]*ShardedMeshResult, error) {
	var out []*ShardedMeshResult
	for _, shards := range []int{1, 2, 4} {
		r, err := ShardedMesh(shards, p.Dur, p.Seed)
		if err != nil {
			return nil, err
		}
		for i := range r.Flows {
			if len(out) > 0 && r.Flows[i] != out[0].Flows[i] {
				return nil, fmt.Errorf("flow %d diverged between shards=1 and shards=%d", i, shards)
			}
		}
		out = append(out, r)
	}
	return out, nil
}

func printSharded(w io.Writer, runs []*ShardedMeshResult) {
	for i, r := range runs {
		fmt.Fprintf(w, "shards=%d (drops=%d)\n", r.Shards, r.Drops)
		fmt.Fprintf(w, "  %-8s %-12s %10s %10s %10s %6s\n",
			"Scheme", "Path", "Mbps", "mean(ms)", "p95(ms)", "lost")
		for _, f := range r.Flows {
			fmt.Fprintf(w, "  %-8s %-12s %10.2f %10.1f %10.1f %6d\n",
				f.Scheme, f.Path, f.TputMbps, f.MeanMs, f.P95Ms, f.Lost)
		}
		if i > 0 {
			fmt.Fprintf(w, "  identical to shards=1\n")
		}
	}
}
