package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/numeric"
	"repro/internal/stats"
)

// The latency histograms hold fixed bins over log10(milliseconds):
// nine decades from 1µs to ~16.7min at 20 bins per decade. Each bin is
// 5% wide in log space, so interpolated quantiles carry a few percent
// of relative error — plenty for p50/p95/p99 dashboards — while the
// histogram itself stays O(1) per observation and fixed-size forever.
const (
	histLogLo = -3.0
	histLogHi = 6.0
	histBins  = 180
	histMinMS = 1e-3
)

// Counter is a monotonically increasing metric. All methods are no-ops
// on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric. All methods are no-ops on a nil
// receiver.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by d (atomic compare-and-swap loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// LatencyHist is a fixed-bin latency distribution built on the
// internal/stats histogram machinery. All methods are no-ops on a nil
// receiver.
type LatencyHist struct {
	mu    sync.Mutex
	h     *stats.Histogram
	count int64
	sum   numeric.Accumulator // milliseconds
	min   float64
	max   float64
}

// NewLatencyHist returns an empty latency histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{h: stats.NewHistogram(histLogLo, histLogHi, histBins)}
}

// Observe records one duration.
func (h *LatencyHist) Observe(d time.Duration) {
	h.ObserveMS(float64(d) / float64(time.Millisecond))
}

// ObserveMS records one latency given in milliseconds. Non-positive
// and NaN observations are clamped to the smallest representable bin
// (the histogram measures elapsed time; zero happens under frozen test
// clocks).
func (h *LatencyHist) ObserveMS(ms float64) {
	if h == nil {
		return
	}
	if !(ms >= histMinMS) { // also catches NaN
		ms = histMinMS
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.h.Add(math.Log10(ms))
	h.count++
	h.sum.Add(ms)
	if h.count == 1 || ms < h.min {
		h.min = ms
	}
	if ms > h.max {
		h.max = ms
	}
}

// HistSnapshot is a point-in-time latency summary. Count, Mean, Min,
// and Max are exact; the quantiles are interpolated from the log-space
// bins.
type HistSnapshot struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	MinMS  float64 `json:"min_ms"`
	MaxMS  float64 `json:"max_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Snapshot summarizes the histogram (zero value for nil or empty).
func (h *LatencyHist) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count:  h.count,
		MeanMS: h.sum.Sum() / float64(h.count),
		MinMS:  h.min,
		MaxMS:  h.max,
	}
	s.P50MS = h.quantileLocked(0.50)
	s.P90MS = h.quantileLocked(0.90)
	s.P95MS = h.quantileLocked(0.95)
	s.P99MS = h.quantileLocked(0.99)
	return s
}

// quantileLocked interpolates the q-quantile (in ms) from the log-bin
// weights, clamped to the exact observed [min, max]. Caller holds mu.
func (h *LatencyHist) quantileLocked(q float64) float64 {
	target := q * float64(h.count)
	var cum float64
	w := h.h.BinWidth()
	for i, c := range h.h.Counts {
		if c <= 0 {
			continue
		}
		if cum+c >= target {
			frac := (target - cum) / c
			if frac < 0 {
				frac = 0
			}
			logv := h.h.Lo + (float64(i)+frac)*w
			v := math.Pow(10, logv)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// Registry owns a process- or server-scoped set of named metrics.
// Instruments are created on first use and live forever (the set of
// names is small and bounded by the instrumentation sites). A nil
// *Registry hands out nil instruments, so optional instrumentation is
// branch-free at call sites.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*LatencyHist
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*LatencyHist),
	}
}

// Counter returns the named counter, creating it on first use (nil for
// a nil registry).
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

// Gauge returns the named gauge, creating it on first use (nil for a
// nil registry).
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

// Histogram returns the named latency histogram, creating it on first
// use (nil for a nil registry).
func (r *Registry) Histogram(name string) *LatencyHist {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewLatencyHist()
		r.hists[name] = h
	}
	return h
}

// RegistrySnapshot is a point-in-time JSON-encodable view of every
// instrument (encoding/json renders map keys sorted, so the output is
// deterministic for a given state).
type RegistrySnapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current state (zero value for a
// nil registry).
func (r *Registry) Snapshot() RegistrySnapshot {
	if r == nil {
		return RegistrySnapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := RegistrySnapshot{}
	if len(r.counters) > 0 {
		out.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			out.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		out.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			out.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		out.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			out.Histograms[name] = h.Snapshot()
		}
	}
	return out
}
