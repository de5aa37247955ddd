// Package obs is the repo-wide observability layer: a dependency-free
// metrics registry built from atomic counters, gauges, and log-bucketed
// latency histograms.
//
// Design rules (see DESIGN.md §10):
//
//   - The fast path is allocation-free. Recording into any instrument is
//     a handful of atomic adds on preallocated storage — no maps, no
//     locks, no interface boxing. Registration (which does take a lock)
//     happens once at setup time, never per operation.
//   - Every instrument is usable as a zero value, so components can
//     embed histograms directly in their stats structs and register the
//     pointers into a Registry later (or never, for tests).
//   - Snapshots are plain values: mergeable across registries (one per
//     data server in a cluster), JSON-marshalable for the /debug/metrics
//     endpoint, and renderable as an aligned text table for seqbench.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// base anchors Now's monotonic clock. time.Since on a time that
// carries a monotonic reading skips the wall-clock read that time.Now
// performs, leaving a single runtime clock read (~30ns on this class
// of hardware — which is why latency instrumentation on the RPC fast
// path samples its clock reads instead of timing every call).
var base = time.Now()

// Now returns a monotonic timestamp in nanoseconds for latency
// measurement: pair two calls and Record their difference. It is
// meaningful only relative to other Now values in the same process.
func Now() int64 { return int64(time.Since(base)) }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n and returns the new value, so a call
// site can count and make a sampling decision with one atomic op.
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Inc increments the counter by one and returns the new value.
func (c *Counter) Inc() int64 { return c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value that can move both ways
// (in-flight requests, queue depth, dirty bytes).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// numBuckets is the number of log2 histogram buckets. Bucket i counts
// values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0
// holds exact zeros. 64 buckets cover the full int64 range, so a
// nanosecond histogram spans sub-ns to ~292 years with one atomic add
// per record and ≤2x quantization error before interpolation.
const numBuckets = 65

// Histogram is a log2-bucketed distribution with preallocated atomic
// buckets. The zero value is ready to use. Record is wait-free apart
// from a rarely-contended CAS loop maintaining the max.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Record adds one observation. Negative values are clamped to zero
// (they only arise from clock anomalies in latency measurement).
// The count is not maintained separately — Count sums the buckets —
// keeping the fast path at two atomic adds plus a usually-failing
// max check.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Observe records a duration in nanoseconds.
func (h *Histogram) Observe(d time.Duration) { h.Record(d.Nanoseconds()) }

// Count returns the number of recorded observations (a sum over the
// bucket array; cheap enough for snapshot paths, not meant per-op).
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the running total of all recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot returns a point-in-time copy of the distribution. Buckets
// are read without a global lock, so a snapshot taken concurrently
// with Record may be slightly torn between fields (count vs buckets);
// each individual field is still a valid atomic read, which is all the
// quantile math needs.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Registry is a named collection of instruments. All methods are safe
// for concurrent use; the intended pattern is get-or-create / register
// at setup time and lock-free recording thereafter.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	funcs      map[string]func() int64
	hists      map[string]*Histogram
	collectors []Collector
}

// Collector contributes dynamically named instruments to a snapshot
// (e.g. per-RPC-method histograms that only exist once a method has
// seen traffic). Collect is called under no registry lock and must add
// entries to the snapshot maps directly.
type Collector interface {
	Collect(s *Snapshot)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		funcs:    map[string]func() int64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Func registers a sampling function reported as a gauge at snapshot
// time. Used to surface values a component already maintains (dirty
// bytes, extent-cache entries) without double counting.
func (r *Registry) Func(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// RegisterHistogram exposes a histogram owned by another struct (e.g.
// dlm.Stats wait histograms) under the given name.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = h
}

// RegisterCounter exposes an externally owned counter.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// RegisterGauge exposes an externally owned gauge.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = g
}

// RegisterCollector adds a dynamic instrument source.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Snapshot captures every registered instrument. Sampling functions
// and collectors run outside the registry lock so they may take their
// own locks freely.
func (r *Registry) Snapshot() Snapshot {
	s := NewSnapshot()
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	for name, fn := range funcs {
		s.Gauges[name] = fn()
	}
	for name, h := range hists {
		s.Histograms[name] = h.Snapshot()
	}
	for _, c := range collectors {
		c.Collect(&s)
	}
	return s
}
