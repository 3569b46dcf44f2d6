package knn

import (
	"math"
	"sort"
)

// distance computes the configured metric; for Cosine it returns
// 1 − cos(x, y), which is 0 for parallel vectors and 2 for antiparallel.
func (r *Regressor) distance(a, b []float64) float64 {
	switch r.Metric {
	case Cosine:
		var dot, na, nb float64
		for i := range a {
			dot += a[i] * b[i]
			na += a[i] * a[i]
			nb += b[i] * b[i]
		}
		if na == 0 || nb == 0 {
			return 1 // orthogonal by convention when a norm vanishes
		}
		return 1 - dot/math.Sqrt(na*nb)
	case Manhattan:
		var s float64
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	default: // Euclidean
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
}

// predictReference is the original row-at-a-time implementation —
// per-candidate distance calls, bounded heap, sort.Slice ordering —
// kept as the independent reference the equivalence suite compares
// against the blocked kernel bit for bit.
func (r *Regressor) predictReference(x []float64) []float64 {
	if r.x == nil {
		panic("knn: Predict before Fit")
	}
	q := x
	if r.Standardize {
		q = r.scaler.Transform(x)
	}
	k := r.K
	if k > len(r.x) {
		k = len(r.x)
	}
	heap := make([]neighbor, 0, k)
	for i, row := range r.x {
		cand := neighbor{dist: r.distance(q, row), idx: i}
		if len(heap) < k {
			heap = append(heap, cand)
			siftUp(heap, len(heap)-1)
		} else if worse(heap[0], cand) {
			heap[0] = cand
			siftDown(heap, 0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return worse(heap[j], heap[i]) })
	out := make([]float64, len(r.y[0]))
	var wsum float64
	for _, n := range heap {
		w := 1.0
		if r.Weighting == Distance {
			w = 1 / (n.dist + 1e-12)
		}
		wsum += w
		for j, v := range r.y[n.idx] {
			out[j] += w * v
		}
	}
	if wsum <= 0 {
		return out
	}
	for j := range out {
		out[j] /= wsum
	}
	return out
}

// siftUp restores the max-heap property after appending at index i.
func siftUp(h []neighbor, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores the max-heap property after replacing the root.
func siftDown(h []neighbor, i int) {
	for {
		l, rt := 2*i+1, 2*i+2
		w := i
		if l < len(h) && worse(h[l], h[w]) {
			w = l
		}
		if rt < len(h) && worse(h[rt], h[w]) {
			w = rt
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}
