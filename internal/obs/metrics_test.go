package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("reqs") != c {
		t.Error("same name should return the same counter")
	}
	g := r.Gauge("inflight")
	g.Set(2.5)
	g.Add(0.5)
	if g.Value() != 3 {
		t.Errorf("gauge = %v, want 3", g.Value())
	}
	if r.Gauge("inflight") != g {
		t.Error("same name should return the same gauge")
	}
}

func TestNilInstrumentsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	h.ObserveMS(5)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil instruments should read as zero")
	}
	if snap := r.Snapshot(); snap.Counters != nil || snap.Histograms != nil {
		t.Error("nil registry snapshot should be empty")
	}
}

func TestLatencyHistExactFields(t *testing.T) {
	h := NewLatencyHist()
	if h.Snapshot() != (HistSnapshot{}) {
		t.Fatal("empty histogram snapshot should be zero")
	}
	for _, ms := range []float64{1, 2, 3, 4, 10} {
		h.ObserveMS(ms)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("count = %d", s.Count)
	}
	if s.MinMS != 1 || s.MaxMS != 10 {
		t.Errorf("min/max = %v/%v, want 1/10", s.MinMS, s.MaxMS)
	}
	if math.Abs(s.MeanMS-4) > 1e-12 {
		t.Errorf("mean = %v, want 4", s.MeanMS)
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	// 1000 observations spread uniformly over [1, 1000] ms: quantile q
	// should land near 1000q ms within the 5%-in-log bin resolution.
	h := NewLatencyHist()
	for i := 1; i <= 1000; i++ {
		h.ObserveMS(float64(i))
	}
	s := h.Snapshot()
	for _, tc := range []struct{ got, want float64 }{
		{s.P50MS, 500}, {s.P90MS, 900}, {s.P95MS, 950}, {s.P99MS, 990},
	} {
		if rel := math.Abs(tc.got-tc.want) / tc.want; rel > 0.12 {
			t.Errorf("quantile = %v, want ~%v (rel err %.3f)", tc.got, tc.want, rel)
		}
	}
	if s.P50MS > s.P90MS || s.P90MS > s.P95MS || s.P95MS > s.P99MS {
		t.Error("quantiles must be monotone")
	}
	if s.P99MS > s.MaxMS || s.P50MS < s.MinMS {
		t.Error("quantiles must be clamped to [min, max]")
	}
}

func TestLatencyHistSingleValue(t *testing.T) {
	h := NewLatencyHist()
	h.Observe(25 * time.Millisecond)
	s := h.Snapshot()
	// With one observation every quantile is that observation, exactly,
	// thanks to the [min, max] clamp.
	if s.P50MS != 25 || s.P99MS != 25 || s.MinMS != 25 || s.MaxMS != 25 {
		t.Errorf("snapshot = %+v, want all 25", s)
	}
}

func TestLatencyHistClampsJunk(t *testing.T) {
	h := NewLatencyHist()
	h.ObserveMS(0)
	h.ObserveMS(-5)
	h.ObserveMS(math.NaN())
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MinMS != histMinMS || s.MaxMS != histMinMS {
		t.Errorf("junk observations should clamp to %v, got %+v", histMinMS, s)
	}
}

func TestLatencyHistConcurrent(t *testing.T) {
	h := NewLatencyHist()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				h.ObserveMS(float64(j + 1))
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 1600 {
		t.Errorf("count = %d, want 1600", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Gauge("temp").Set(1.5)
	r.Histogram("lat").ObserveMS(7)
	snap := r.Snapshot()
	if snap.Counters["hits"] != 3 || snap.Gauges["temp"] != 1.5 || snap.Histograms["lat"].Count != 1 {
		t.Errorf("snapshot = %+v", snap)
	}

	// The snapshot is what GET /v1/metrics encodes: it must round-trip
	// through JSON under the documented field names.
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	out := string(buf)
	var decoded RegistrySnapshot
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not decode: %v\n%s", err, out)
	}
	if decoded.Counters["hits"] != 3 {
		t.Errorf("decoded snapshot = %+v", decoded)
	}
	for _, key := range []string{"p50_ms", "p95_ms", "p99_ms", "count"} {
		if !strings.Contains(out, key) {
			t.Errorf("snapshot JSON missing %q: %s", key, out)
		}
	}
}

func TestRegistryConcurrentCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(1)
				r.Histogram("h").ObserveMS(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 800 {
		t.Errorf("counter = %d, want 800", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 800 {
		t.Errorf("hist count = %d, want 800", got)
	}
}
