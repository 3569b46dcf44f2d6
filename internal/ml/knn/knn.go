// Package knn implements the k-nearest-neighbors regressor the paper
// found most accurate for distribution prediction (k = 15, cosine
// distance). It supports multi-output targets, several distance
// metrics, and uniform or inverse-distance weighting.
package knn

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/ml"
	"repro/internal/parallel"
)

// Metric selects the distance function between feature vectors.
type Metric int

// Supported metrics. The paper reports cosine similarity outperforming
// Euclidean distance on perf-counter profiles; both are provided so the
// ablation benchmark can reproduce that comparison.
const (
	Cosine Metric = iota
	Euclidean
	Manhattan
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Euclidean:
		return "euclidean"
	case Manhattan:
		return "manhattan"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Weighting selects how neighbor targets are averaged.
type Weighting int

// Uniform averages the k neighbors equally (scikit-learn's default and
// the paper's setting); Distance weights each neighbor by 1/distance.
const (
	Uniform Weighting = iota
	Distance
)

// Regressor is a kNN multi-output regressor. The zero value is not
// usable; construct with New.
type Regressor struct {
	K         int
	Metric    Metric
	Weighting Weighting
	// Standardize controls whether features are z-scored before distance
	// computation (recommended; on by default in New).
	Standardize bool

	scaler *ml.StandardScaler
	x      [][]float64
	y      [][]float64

	// Flattened serving-kernel state, built by finalize at fit/decode
	// time: the training matrix in one contiguous row-major block (the
	// rows of x are re-pointed to views into it), per-row squared norms
	// for the cosine metric, the output arity, and a pool of
	// request-scoped scratch buffers so steady-state prediction does
	// not allocate.
	xflat   []float64
	sqnorm  []float64
	nOut    int
	scratch sync.Pool // *predictScratch

	// Column-major mirror of xflat for the AVX-512 cosine kernel
	// (element (i, j) at xflatT[j*nPad+i]), padded with zero rows to a
	// multiple of the kernel's 32-lane width. nil when the kernel is
	// unavailable or the metric is not cosine.
	xflatT []float64
	nPad   int
}

// predictScratch is the per-call working set: the standardized query,
// the distance column, and the bounded selection heap. Pooled so the
// batch hot path runs allocation-free.
type predictScratch struct {
	q    []float64
	dist []float64
	heap []neighbor
}

// New returns a kNN regressor with the paper's defaults: k = 15, cosine
// distance, uniform weighting, standardized features.
func New(k int) *Regressor {
	return &Regressor{K: k, Metric: Cosine, Weighting: Uniform, Standardize: true}
}

// Name implements ml.Regressor.
func (r *Regressor) Name() string { return fmt.Sprintf("kNN(k=%d,%s)", r.K, r.Metric) }

// Fit stores the (optionally standardized) training set.
func (r *Regressor) Fit(d *ml.Dataset) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	if r.K < 1 {
		return fmt.Errorf("knn: k must be >= 1, got %d", r.K)
	}
	x := d.X
	if r.Standardize {
		var err error
		r.scaler, err = ml.FitScaler(d.X)
		if err != nil {
			return fmt.Errorf("knn: %w", err)
		}
		x = r.scaler.TransformAll(d.X)
	} else {
		// Copy rows so later caller mutations cannot corrupt the model.
		x = make([][]float64, len(d.X))
		for i, row := range d.X {
			x[i] = append([]float64(nil), row...)
		}
	}
	r.x = x
	r.y = make([][]float64, len(d.Y))
	for i, row := range d.Y {
		r.y[i] = append([]float64(nil), row...)
	}
	r.finalize()
	return nil
}

// finalize builds the flattened serving-kernel state from the stored
// training set: the contiguous row-major matrix the blocked distance
// kernel streams over, and (for the cosine metric) the per-row squared
// norms Σv², accumulated in the same element order as the reference
// distance loop so the values are bit-identical. Fit and DecodeWire
// both call it.
func (r *Regressor) finalize() {
	n := len(r.x)
	p := len(r.x[0])
	r.xflat = make([]float64, n*p)
	for i, row := range r.x {
		copy(r.xflat[i*p:(i+1)*p], row)
		r.x[i] = r.xflat[i*p : (i+1)*p] // rows become views of the block
	}
	r.sqnorm = nil
	r.xflatT, r.nPad = nil, 0
	if r.Metric == Cosine {
		r.sqnorm = make([]float64, n)
		for i := 0; i < n; i++ {
			var s float64
			for _, v := range r.xflat[i*p : (i+1)*p] {
				s += v * v
			}
			r.sqnorm[i] = s
		}
		if hasAVX512 && p > 0 {
			// Column-major mirror for the vector kernel, zero-padded to
			// whole 64-row blocks. Padding lanes accumulate garbage
			// distances that are never read (and a zero squared norm, so
			// the kernel's vanishing-norm lane fix keeps them finite).
			r.nPad = (n + 63) &^ 63
			r.xflatT = make([]float64, p*r.nPad)
			for i := 0; i < n; i++ {
				row := r.xflat[i*p : (i+1)*p]
				for j, v := range row {
					r.xflatT[j*r.nPad+i] = v
				}
			}
			sq := make([]float64, r.nPad)
			copy(sq, r.sqnorm)
			r.sqnorm = sq
		}
	}
	r.nOut = len(r.y[0])
}

// neighbor is one candidate training point during top-k selection.
type neighbor struct {
	dist float64
	idx  int
}

// worse reports whether a ranks after b in nearest-neighbor order:
// larger distance, with ties broken toward the larger index (the same
// deterministic tie-break the full sort used).
func worse(a, b neighbor) bool {
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	return a.idx > b.idx
}

// Predict returns the (weighted) mean target of the k nearest training
// examples. If fewer than k examples exist, all are used. It runs the
// same blocked, allocation-free kernel as PredictBatchInto (only the
// returned vector is allocated) and is bit-identical to the
// row-at-a-time reference in the package's tests.
func (r *Regressor) Predict(x []float64) []float64 {
	out := make([]float64, r.nOut)
	s := r.getScratch()
	r.predictInto(x, out, s)
	r.scratch.Put(s)
	return out
}

// NumOutputs implements ml.BatchIntoPredictor.
func (r *Regressor) NumOutputs() int { return r.nOut }

// NumFeatures returns the input width the model was fitted at.
func (r *Regressor) NumFeatures() int { return len(r.x[0]) }

// PredictBatchInto implements ml.BatchIntoPredictor: rows fan out
// across the shared worker pool (bounded by GOMAXPROCS), each filled in
// place with pooled scratch. Row results are independent, so the output
// is bit-identical at any worker count.
func (r *Regressor) PredictBatchInto(ctx context.Context, X, out [][]float64) {
	_ = parallel.ForEach(ctx, len(X), 0, func(_ context.Context, i int) error {
		s := r.getScratch()
		r.predictInto(X[i], out[i], s)
		r.scratch.Put(s)
		return nil
	})
}

// getScratch returns a scratch set sized for this model; steady state
// it never allocates.
func (r *Regressor) getScratch() *predictScratch {
	s, _ := r.scratch.Get().(*predictScratch)
	if s == nil {
		s = &predictScratch{}
	}
	n, p := len(r.x), len(r.x[0])
	if cap(s.q) < p {
		s.q = make([]float64, p)
	}
	s.q = s.q[:p]
	// The vector kernel writes whole 64-lane blocks, so the distance
	// column needs capacity for the padded row count.
	padN := n
	if r.nPad > padN {
		padN = r.nPad
	}
	if cap(s.dist) < padN {
		s.dist = make([]float64, padN)
	}
	s.dist = s.dist[:n]
	if cap(s.heap) < n {
		s.heap = make([]neighbor, 0, n)
	}
	s.heap = s.heap[:0]
	return s
}

// predictInto is the serving kernel: distances via the blocked flat
// kernel, bounded-heap top-k selection in candidate order, nearest-first
// weighted accumulation into out. Every step reproduces the reference
// implementation's floating-point operation order exactly, so the
// result matches it to the last bit.
func (r *Regressor) predictInto(x, out []float64, s *predictScratch) {
	if r.x == nil {
		panic("knn: Predict before Fit")
	}
	if r.K < 1 {
		// Fit rejects K < 1, so this only trips when the exported field
		// was mutated after fitting; selecting zero neighbors would
		// silently predict zeros, so fail loudly instead.
		panic(fmt.Sprintf("knn: Predict with K=%d (K must be >= 1; was it mutated after Fit?)", r.K))
	}
	q := x
	var na float64
	naKnown := false
	if r.Standardize {
		if r.Metric == Cosine {
			// Fused transform + query norm: same values, same element
			// order as a separate Σq² pass, with the serial add chain
			// hidden behind the transform's divides.
			na = r.scaler.TransformSumSqInto(x, s.q)
			naKnown = true
		} else {
			r.scaler.TransformInto(x, s.q)
		}
		q = s.q
	}
	k := r.K
	if k > len(r.x) {
		k = len(r.x)
	}
	r.distancesInto(q, s.dist, na, naKnown)
	// Top-k selection by insertion into a nearest-first sorted window,
	// visiting candidates in index order. The comparator (distance,
	// then index) is a strict total order, so the selected set and its
	// sorted order — and therefore the accumulation below — are the
	// unique ones the reference's heap + full sort produces. The
	// window's current worst is kept in a local so the common case —
	// a candidate that doesn't make the cut — is a single compare.
	sel := s.heap[:0]
	var worst neighbor
	for i, dv := range s.dist {
		if len(sel) == k {
			if dv > worst.dist || (dv == worst.dist && i > worst.idx) {
				continue // ranks after the current worst kept
			}
			sel = sel[:k-1] // evict the worst, then insert in order
		}
		cand := neighbor{dist: dv, idx: i}
		j := len(sel) - 1
		sel = append(sel, cand)
		for ; j >= 0 && worse(sel[j], cand); j-- {
			sel[j+1] = sel[j]
		}
		sel[j+1] = cand
		worst = sel[len(sel)-1]
	}
	// Accumulate nearest-first so the floating-point summation order
	// (and thus the result, to the last bit) matches the full sort.
	for j := range out {
		out[j] = 0
	}
	var wsum float64
	for _, n := range sel {
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
		return // no neighbors contributed weight
	}
	for j := range out {
		out[j] /= wsum
	}
}

// distancesInto fills dist[i] with the configured metric between q and
// training row i, processing candidates in blocks of eight so eight
// independent accumulator chains keep the floating-point units busy
// (the scalar loop is latency-bound on one serial add chain). Each
// candidate's accumulator receives exactly the element-order additions
// of the reference r.distance loop, so every distance is bit-identical.
// When naKnown is true, na is the caller's already-accumulated Σq²
// (only meaningful for the cosine metric).
func (r *Regressor) distancesInto(q, dist []float64, na float64, naKnown bool) {
	switch r.Metric {
	case Cosine:
		r.cosineInto(q, dist, na, naKnown)
	case Manhattan:
		r.manhattanInto(q, dist)
	default:
		r.euclideanInto(q, dist)
	}
}

// cosineDist finishes 1 − cos from the accumulated dot product and the
// two squared norms, with the reference kernel's vanishing-norm
// convention.
func cosineDist(dot, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 1 // orthogonal by convention when a norm vanishes
	}
	return 1 - dot/math.Sqrt(na*nb)
}

func (r *Regressor) cosineInto(q, dist []float64, na float64, naKnown bool) {
	// The query norm depends only on q: computed once per call, in the
	// same element order as the reference loop's interleaved na chain
	// (or fused into the standardizing transform by the caller).
	if !naKnown {
		na = 0
		for _, v := range q {
			na += v * v
		}
	}
	if simdEnabled && r.xflatT != nil {
		if na == 0 {
			// Vanishing query norm: the reference returns 1 for every
			// candidate (this also covers zero-feature queries).
			for i := range dist {
				dist[i] = 1
			}
			return
		}
		// 64 candidate rows per call: one row per vector lane, each lane
		// accumulating in the scalar reference's exact feature order.
		pd := dist[:r.nPad]
		for i0 := 0; i0 < r.nPad; i0 += 64 {
			cosineBlock64(&q[0], len(q), &r.xflatT[i0], r.nPad, na, &r.sqnorm[i0], &pd[i0])
		}
		return
	}
	p := len(q)
	n := len(r.x)
	sq := r.sqnorm
	i := 0
	for ; i+8 <= n; i += 8 {
		b0 := r.xflat[(i+0)*p : (i+1)*p]
		b1 := r.xflat[(i+1)*p : (i+2)*p]
		b2 := r.xflat[(i+2)*p : (i+3)*p]
		b3 := r.xflat[(i+3)*p : (i+4)*p]
		b4 := r.xflat[(i+4)*p : (i+5)*p]
		b5 := r.xflat[(i+5)*p : (i+6)*p]
		b6 := r.xflat[(i+6)*p : (i+7)*p]
		b7 := r.xflat[(i+7)*p : (i+8)*p]
		var d0, d1, d2, d3, d4, d5, d6, d7 float64
		for j, qv := range q {
			d0 += qv * b0[j]
			d1 += qv * b1[j]
			d2 += qv * b2[j]
			d3 += qv * b3[j]
			d4 += qv * b4[j]
			d5 += qv * b5[j]
			d6 += qv * b6[j]
			d7 += qv * b7[j]
		}
		dist[i+0] = cosineDist(d0, na, sq[i+0])
		dist[i+1] = cosineDist(d1, na, sq[i+1])
		dist[i+2] = cosineDist(d2, na, sq[i+2])
		dist[i+3] = cosineDist(d3, na, sq[i+3])
		dist[i+4] = cosineDist(d4, na, sq[i+4])
		dist[i+5] = cosineDist(d5, na, sq[i+5])
		dist[i+6] = cosineDist(d6, na, sq[i+6])
		dist[i+7] = cosineDist(d7, na, sq[i+7])
	}
	for ; i < n; i++ {
		b := r.xflat[i*p : (i+1)*p]
		var dot float64
		for j, qv := range q {
			dot += qv * b[j]
		}
		dist[i] = cosineDist(dot, na, sq[i])
	}
}

func (r *Regressor) euclideanInto(q, dist []float64) {
	p := len(q)
	n := len(r.x)
	i := 0
	for ; i+8 <= n; i += 8 {
		b0 := r.xflat[(i+0)*p : (i+1)*p]
		b1 := r.xflat[(i+1)*p : (i+2)*p]
		b2 := r.xflat[(i+2)*p : (i+3)*p]
		b3 := r.xflat[(i+3)*p : (i+4)*p]
		b4 := r.xflat[(i+4)*p : (i+5)*p]
		b5 := r.xflat[(i+5)*p : (i+6)*p]
		b6 := r.xflat[(i+6)*p : (i+7)*p]
		b7 := r.xflat[(i+7)*p : (i+8)*p]
		var d0, d1, d2, d3, d4, d5, d6, d7 float64
		for j, qv := range q {
			e0 := qv - b0[j]
			d0 += e0 * e0
			e1 := qv - b1[j]
			d1 += e1 * e1
			e2 := qv - b2[j]
			d2 += e2 * e2
			e3 := qv - b3[j]
			d3 += e3 * e3
			e4 := qv - b4[j]
			d4 += e4 * e4
			e5 := qv - b5[j]
			d5 += e5 * e5
			e6 := qv - b6[j]
			d6 += e6 * e6
			e7 := qv - b7[j]
			d7 += e7 * e7
		}
		//lint:allow floatcheck each accumulator is a sum of squares, so it is always >= 0
		dist[i+0], dist[i+1], dist[i+2], dist[i+3] = math.Sqrt(d0), math.Sqrt(d1), math.Sqrt(d2), math.Sqrt(d3)
		//lint:allow floatcheck each accumulator is a sum of squares, so it is always >= 0
		dist[i+4], dist[i+5], dist[i+6], dist[i+7] = math.Sqrt(d4), math.Sqrt(d5), math.Sqrt(d6), math.Sqrt(d7)
	}
	for ; i < n; i++ {
		b := r.xflat[i*p : (i+1)*p]
		var s float64
		for j, qv := range q {
			e := qv - b[j]
			s += e * e
		}
		//lint:allow floatcheck s is a sum of squares, so it is always >= 0
		dist[i] = math.Sqrt(s)
	}
}

func (r *Regressor) manhattanInto(q, dist []float64) {
	p := len(q)
	n := len(r.x)
	i := 0
	for ; i+8 <= n; i += 8 {
		b0 := r.xflat[(i+0)*p : (i+1)*p]
		b1 := r.xflat[(i+1)*p : (i+2)*p]
		b2 := r.xflat[(i+2)*p : (i+3)*p]
		b3 := r.xflat[(i+3)*p : (i+4)*p]
		b4 := r.xflat[(i+4)*p : (i+5)*p]
		b5 := r.xflat[(i+5)*p : (i+6)*p]
		b6 := r.xflat[(i+6)*p : (i+7)*p]
		b7 := r.xflat[(i+7)*p : (i+8)*p]
		var d0, d1, d2, d3, d4, d5, d6, d7 float64
		for j, qv := range q {
			d0 += math.Abs(qv - b0[j])
			d1 += math.Abs(qv - b1[j])
			d2 += math.Abs(qv - b2[j])
			d3 += math.Abs(qv - b3[j])
			d4 += math.Abs(qv - b4[j])
			d5 += math.Abs(qv - b5[j])
			d6 += math.Abs(qv - b6[j])
			d7 += math.Abs(qv - b7[j])
		}
		dist[i+0], dist[i+1], dist[i+2], dist[i+3] = d0, d1, d2, d3
		dist[i+4], dist[i+5], dist[i+6], dist[i+7] = d4, d5, d6, d7
	}
	for ; i < n; i++ {
		b := r.xflat[i*p : (i+1)*p]
		var s float64
		for j, qv := range q {
			s += math.Abs(qv - b[j])
		}
		dist[i] = s
	}
}
