package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe
// for concurrent use and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Store overwrites the count. It exists for mirroring an externally
// maintained cumulative count (a simulator-side statistic) into the
// registry; counters owned by the registry should use Add/Inc.
func (c *Counter) Store(v int64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The float64 value is
// stored via math.Float64bits in a uint64 so reads and writes are
// single atomic operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Sample is one (name, value) pair from a registry snapshot.
type Sample struct {
	Name      string // full exposition name, labels included
	Value     float64
	IsCounter bool
}

// Registry is a get-or-create collection of named counters and gauges.
// Names follow Prometheus conventions and may embed labels directly:
// `abc_queue_pkts{edge="fwd0"}`. Registration takes a lock; the
// returned handles are lock-free, so hot paths should hold on to them.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	help     map[string]string // metric family -> HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		help:     make(map[string]string),
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Registering the same name as both counter and gauge panics.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	if _, ok := r.gauges[name]; ok {
		panic("obs: metric " + name + " already registered as a gauge")
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if _, ok := r.counters[name]; ok {
		panic("obs: metric " + name + " already registered as a counter")
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Help sets the HELP text for a metric family (the name before any
// `{` label block).
func (r *Registry) Help(family, text string) {
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
}

// Snapshot returns a consistent point-in-time view of every metric,
// sorted by name. Individual values are read atomically; the set of
// registered names is captured under the registry lock.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	out := make([]Sample, 0, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Value: float64(c.Value()), IsCounter: true})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{Name: name, Value: g.Value()})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// family strips the label block from an exposition name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE headers per family, then one sample
// per line, sorted by name.
func (r *Registry) WriteProm(w io.Writer) error {
	samples := r.Snapshot()
	r.mu.RLock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, s := range samples {
		fam := family(s.Name)
		if fam != lastFamily {
			lastFamily = fam
			if h, ok := help[fam]; ok {
				if _, err := fmt.Fprintf(bw, "# HELP %s %s\n", fam, h); err != nil {
					return err
				}
			}
			typ := "gauge"
			if s.IsCounter {
				typ = "counter"
			}
			if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", fam, typ); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "%s %s\n", s.Name, formatValue(s.Value)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// formatValue renders a float the way Prometheus text format expects:
// integers without a decimal point, everything else via %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
