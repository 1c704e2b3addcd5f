// Package obs is the repository's dependency-free observability layer:
// a typed metrics registry (atomic counters, gauges and fixed-bucket
// histograms with a Snapshot/Diff API), a lock-light ring-buffer event
// tracer exportable as Chrome trace_event JSON or CSV, and a live
// introspection HTTP server (expvar + pprof).
//
// Instrumented packages gate every touch point on the globally installed
// *Sink (see Enable/Active): with no sink installed the fast path is a
// single atomic pointer load and a nil check, adding zero allocations to
// the PHY per-symbol loop.
//
// Metric names are dot-scoped, subsystem first: `phy.symbols_crc_fail`,
// `mac.collisions`, `rte.updates`. Per-entity metrics put the entity index
// between the scope and the leaf: `mac.sta.3.delivered_bytes`.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Nil receivers are silently ignored so
// instrumented code can hold unresolved counters on the disabled path.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (zero for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Load returns the current value (zero for a nil gauge).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with v <= Bounds[i]; one extra overflow bucket counts the
// rest. Observe is lock-free (atomic adds), so concurrent observation is
// safe. There is no separate observation count: a snapshot's Count is the
// sum of the bucket values it read, so the two can never disagree.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is overflow
	sumBits atomic.Uint64  // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// HistogramSnapshot is one histogram's state at Snapshot time.
type HistogramSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // len(Bounds)+1, last is overflow
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
}

// Registry is a named collection of metrics. Lookup is get-or-create and
// safe for concurrent use; the returned metric pointers are stable, so hot
// paths resolve them once and update through the pointer.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil
// registries return nil, which Counter methods treat as a no-op sink.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. Later calls ignore bounds (the first registration
// wins), so call sites can share a literal.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's values, suitable for
// JSON encoding.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Bounds:  h.Bounds(),
			Buckets: make([]int64, len(h.buckets)),
			Sum:     math.Float64frombits(h.sumBits.Load()),
		}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
			hs.Count += hs.Buckets[i]
		}
		s.Histograms[name] = hs
	}
	return s
}

// Diff returns the change from prev to s: counters and histogram buckets
// subtract (metrics absent from prev count from zero), gauges keep their
// current value. Use it to attribute metric deltas to one bounded piece of
// work, e.g. a single experiment figure.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		dh := HistogramSnapshot{
			Bounds:  append([]float64(nil), h.Bounds...),
			Buckets: append([]int64(nil), h.Buckets...),
			Count:   h.Count,
			Sum:     h.Sum,
		}
		if ph, ok := prev.Histograms[name]; ok && len(ph.Buckets) == len(dh.Buckets) {
			for i := range dh.Buckets {
				dh.Buckets[i] -= ph.Buckets[i]
			}
			dh.Count -= ph.Count
			dh.Sum -= ph.Sum
		}
		d.Histograms[name] = dh
	}
	return d
}

// WriteJSON encodes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// String renders the counters sorted by name, for quick debugging.
func (s Snapshot) String() string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("%s=%d\n", n, s.Counters[n])
	}
	return out
}
