// Package sched implements the paper's §5.2 coexistence machinery: a
// dual-queue bottleneck router that isolates ABC from non-ABC traffic,
// bounds each queue by one limit, schedules between the queues by
// weight, and recomputes the weights every 200 ms. Two weight policies
// are provided — ABC's max-min allocation over measured flow demands,
// and RCP's Zombie-List equal-average-rate policy, reproduced here as
// the baseline whose short-flow unfairness Fig. 12 demonstrates.
package sched

import (
	"abc/internal/abc"
	"abc/internal/obs"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/topk"
)

// WeightPolicy selects how queue weights are assigned.
type WeightPolicy int

const (
	// MaxMin is ABC's policy: estimate per-flow demands (top-K flows at
	// X% above current throughput, short flows at current aggregate),
	// compute the max-min fair allocation, and set each queue's weight
	// to the sum of its flows' allocations.
	MaxMin WeightPolicy = iota
	// ZombieList emulates RCP: estimate the number of flows in each
	// queue and equalize the average per-flow rate, which overweights
	// queues full of short flows (§5.2, Fig. 12b).
	ZombieList
)

// The paper's coexistence parameters.
const (
	// topK is the number of large flows tracked per queue.
	topK int = 10
	// demandHeadroom is X: top-K flow demand is (1+X) times measured
	// throughput (paper: X = 10%).
	demandHeadroom float64 = 0.10
	// interval is the weight recomputation period: with X = 10%
	// headroom the weights converge to the fair split in a couple of
	// seconds.
	interval sim.Time = 200 * sim.Millisecond
	// minWeight clamps weights away from starvation.
	minWeight float64 = 0.05
)

// Config parameterizes the dual-queue router.
type Config struct {
	// Policy selects the weight assignment strategy.
	Policy WeightPolicy
	// Limit bounds each of the two queues in packets.
	Limit int
	// Router configures the inner ABC router for the ABC queue.
	Router abc.RouterConfig
}

// DefaultConfig returns the paper's coexistence parameters.
func DefaultConfig() Config {
	return Config{
		Policy: MaxMin,
		Limit:  qdisc.DefaultBuffer,
		Router: abc.DefaultRouterConfig(),
	}
}

// DualQueue is a qdisc with two child queues: an ABC router for ABC flows
// and a droptail FIFO for everything else, served in proportion to
// dynamically computed weights. It implements qdisc.Qdisc,
// qdisc.CapacityAware and obs.Sink.
type DualQueue struct {
	Cfg Config
	// ABC is the inner ABC router (exported so experiments can read its
	// marking stats).
	ABC *abc.Router
	// Other is the non-ABC queue.
	Other *qdisc.DropTail

	qdisc.Capacity
	wABC float64

	// Per-queue service accounting for weighted scheduling.
	servedABC   float64
	servedOther float64

	// Per-interval measurement.
	intervalStart sim.Time
	abcSketch     *topk.SpaceSaving
	otherSketch   *topk.SpaceSaving
	abcBytes      int64
	otherBytes    int64
	// Zombie-list flow estimation: a fixed-size reservoir sample of
	// dequeued packets per queue; the number of distinct flows in the
	// reservoir estimates the queue's flow count weighted by rate, as
	// SRED's zombie list does.
	abcReservoir   []int
	otherReservoir []int
	abcSeen        int64
	otherSeen      int64
}

// NewDualQueue returns the coexistence router.
func NewDualQueue(cfg Config) *DualQueue {
	r := abc.NewRouter(cfg.Router)
	r.Limit = 0 // the dual queue enforces its own limits
	return &DualQueue{
		Cfg:         cfg,
		ABC:         r,
		Other:       qdisc.NewDropTail(cfg.Limit),
		wABC:        0.5,
		abcSketch:   topk.New(topK),
		otherSketch: topk.New(topK),
	}
}

// SetCapacityProvider implements qdisc.CapacityAware. The inner ABC
// router sees only ABC's share of the link (§5.2: "ABC's target rate
// calculation considers only ABC's share of the link capacity").
func (d *DualQueue) SetCapacityProvider(f func(now sim.Time) float64) {
	d.Capacity.SetCapacityProvider(f)
	d.ABC.SetCapacityProvider(func(now sim.Time) float64 {
		return d.wABC * f(now)
	})
}

// SetObs implements obs.Sink by handing the recorder to the ABC child, so
// its marking decisions are traced under the owning edge like a bare
// router's.
func (d *DualQueue) SetObs(rec *obs.Recorder, src int32) { d.ABC.SetObs(rec, src) }

// WeightABC returns the current ABC-queue weight.
func (d *DualQueue) WeightABC() float64 { return d.wABC }

// Enqueue implements qdisc.Qdisc, classifying by the ABC flow tag.
func (d *DualQueue) Enqueue(now sim.Time, p *packet.Packet) bool {
	if d.intervalStart == 0 {
		d.intervalStart = now
	}
	d.maybeReweigh(now)
	if !p.ABCFlow {
		return d.Other.Enqueue(now, p)
	}
	if d.Cfg.Limit > 0 && d.ABC.Len() >= d.Cfg.Limit {
		return d.ABC.Refuse() // counted on the child it was bound for
	}
	return d.ABC.Enqueue(now, p)
}

// Dequeue implements qdisc.Qdisc: serve the queue with the least
// weight-normalized service among the non-empty queues.
func (d *DualQueue) Dequeue(now sim.Time) *packet.Packet {
	d.maybeReweigh(now)
	abcEmpty := d.ABC.Len() == 0
	otherEmpty := d.Other.Len() == 0
	if abcEmpty && otherEmpty {
		return nil
	}
	useABC := false
	switch {
	case otherEmpty:
		useABC = true
	case abcEmpty:
		useABC = false
	default:
		wA, wO := d.wABC, 1-d.wABC
		useABC = d.servedABC/wA <= d.servedOther/wO
	}
	var p *packet.Packet
	if useABC {
		p = d.ABC.Dequeue(now)
		if p != nil {
			d.servedABC += float64(p.Size)
		}
	} else {
		p = d.Other.Dequeue(now)
		if p != nil {
			d.servedOther += float64(p.Size)
		}
	}
	if p == nil {
		return nil
	}
	// Account the dequeued flow's bytes for the demand estimator.
	if p.ABCFlow {
		d.abcSketch.Add(p.Flow, int64(p.Size))
		d.abcBytes += int64(p.Size)
		d.abcSeen++
		reservoirAdd(&d.abcReservoir, p.Flow, d.abcSeen)
	} else {
		d.otherSketch.Add(p.Flow, int64(p.Size))
		d.otherBytes += int64(p.Size)
		d.otherSeen++
		reservoirAdd(&d.otherReservoir, p.Flow, d.otherSeen)
	}
	return p
}

// Len implements qdisc.Qdisc.
func (d *DualQueue) Len() int { return d.ABC.Len() + d.Other.Len() }

// Bytes implements qdisc.Qdisc.
func (d *DualQueue) Bytes() int { return d.ABC.Bytes() + d.Other.Bytes() }

// Counters implements qdisc.Qdisc: the dual queue stores nothing itself,
// so its accounting is the sum of its two children's.
func (d *DualQueue) Counters() qdisc.Stats {
	a, o := d.ABC.Stats, d.Other.Stats
	return qdisc.Stats{
		EnqueuedPackets: a.EnqueuedPackets + o.EnqueuedPackets,
		DroppedPackets:  a.DroppedPackets + o.DroppedPackets,
		DequeuedPackets: a.DequeuedPackets + o.DequeuedPackets,
		DequeuedBytes:   a.DequeuedBytes + o.DequeuedBytes,
	}
}

// maybeReweigh recomputes queue weights once per interval.
func (d *DualQueue) maybeReweigh(now sim.Time) {
	if d.intervalStart == 0 || now-d.intervalStart < interval {
		return
	}
	dur := (now - d.intervalStart).Seconds()
	c := d.Mu(now) / 8 // bytes/sec
	switch d.Cfg.Policy {
	case ZombieList:
		d.reweighZombie()
	default:
		d.reweighMaxMin(dur, c)
	}
	// Clamp and reset measurement state.
	if d.wABC < minWeight {
		d.wABC = minWeight
	}
	if d.wABC > 1-minWeight {
		d.wABC = 1 - minWeight
	}
	d.intervalStart = now
	d.abcSketch.Reset()
	d.otherSketch.Reset()
	d.abcBytes, d.otherBytes = 0, 0
	d.abcReservoir = d.abcReservoir[:0]
	d.otherReservoir = d.otherReservoir[:0]
	d.abcSeen, d.otherSeen = 0, 0
	// Reset service counters so the new weights take effect afresh.
	d.servedABC, d.servedOther = 0, 0
}

// reservoirSize bounds the zombie-list sample per queue per interval.
const reservoirSize = 20

// reservoirAdd keeps a deterministic rate-proportional sample: the first
// reservoirSize packets fill it, after which every (seen/reservoirSize)-th
// packet replaces a rotating slot. Deterministic replacement keeps runs
// reproducible while still sampling roughly in proportion to rate.
func reservoirAdd(r *[]int, flow int, seen int64) {
	if len(*r) < reservoirSize {
		*r = append(*r, flow)
		return
	}
	stride := seen / reservoirSize
	if stride > 0 && seen%stride == 0 {
		(*r)[int(seen/stride)%reservoirSize] = flow
	}
}

// distinct counts unique flows in a reservoir.
func distinct(r []int) int {
	seen := make(map[int]struct{}, len(r))
	for _, f := range r {
		seen[f] = struct{}{}
	}
	return len(seen)
}

// demand describes one max-min participant.
type demand struct {
	rate float64 // bytes/sec demanded
	abc  bool
}

// reweighMaxMin implements ABC's policy: per-flow demands from the top-K
// measurement plus one short-flow aggregate per queue, then a max-min
// water-fill of the link capacity; each queue's weight is the share of
// capacity its flows were allocated.
func (d *DualQueue) reweighMaxMin(dur float64, capacityBps float64) {
	if capacityBps <= 0 || dur <= 0 {
		return
	}
	var demands []demand
	build := func(sk *topk.SpaceSaving, total int64, isABC bool) {
		var topBytes int64
		for _, c := range sk.Top(topK) {
			topBytes += c.Count
			demands = append(demands, demand{
				rate: float64(c.Count) / dur * (1 + demandHeadroom),
				abc:  isABC,
			})
		}
		if shorts := total - topBytes; shorts > 0 {
			demands = append(demands, demand{rate: float64(shorts) / dur, abc: isABC})
		}
	}
	build(d.abcSketch, d.abcBytes, true)
	build(d.otherSketch, d.otherBytes, false)
	if len(demands) == 0 {
		return
	}
	alloc := MaxMinAllocate(capacityBps, demandRates(demands))
	var abcAlloc, total float64
	for i, a := range alloc {
		total += a
		if demands[i].abc {
			abcAlloc += a
		}
	}
	if total > 0 {
		d.wABC = abcAlloc / total
	}
}

func demandRates(ds []demand) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.rate
	}
	return out
}

// reweighZombie implements the RCP baseline: weight each queue by its
// estimated flow count (from the zombie-list reservoir), equalizing
// average per-flow throughput. Short flows inflate the count without
// using their share, which long flows in the same queue then absorb —
// the unfairness Fig. 12b shows.
func (d *DualQueue) reweighZombie() {
	nABC := float64(distinct(d.abcReservoir))
	nOther := float64(distinct(d.otherReservoir))
	if nABC+nOther == 0 {
		return
	}
	d.wABC = nABC / (nABC + nOther)
}

// MaxMinAllocate water-fills capacity over the given demands: demand-
// limited participants receive their demand; the rest split the remainder
// equally. The returned allocations sum to at most capacity.
func MaxMinAllocate(capacity float64, demands []float64) []float64 {
	n := len(demands)
	alloc := make([]float64, n)
	if n == 0 || capacity <= 0 {
		return alloc
	}
	remaining := capacity
	active := make([]int, 0, n)
	for i := range demands {
		active = append(active, i)
	}
	for len(active) > 0 {
		fair := remaining / float64(len(active))
		progressed := false
		next := active[:0]
		for _, i := range active {
			if demands[i] <= fair {
				alloc[i] = demands[i]
				remaining -= demands[i]
				progressed = true
			} else {
				next = append(next, i)
			}
		}
		active = next
		if !progressed {
			fair = remaining / float64(len(active))
			for _, i := range active {
				alloc[i] = fair
			}
			remaining = 0
			break
		}
	}
	return alloc
}
