package ml

import (
	"context"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// BatchIntoPredictor is the allocation-free batch extension: models
// that own a flattened inference kernel implement it to fill a
// caller-provided output matrix without allocating per call. The tree
// ensembles (forest, xgb) and kNN all implement it; PredictBatch and
// PredictBatchInto route through it automatically.
type BatchIntoPredictor interface {
	// NumOutputs returns the fitted output arity (columns of out).
	NumOutputs() int
	// PredictBatchInto writes the prediction for X[i] into out[i].
	// out must have len(X) rows of NumOutputs columns. Implementations
	// must be read-only on the model state and safe for concurrent
	// calls.
	//
	// The per-row kernels behind it must not allocate. Every core model
	// family that implements it is held to a steady-state AllocsPerRun
	// budget per batch (internal/core alloc_test.go), so a new
	// implementation is measured without a new test.
	PredictBatchInto(ctx context.Context, X, out [][]float64)
}

// NewMatrix allocates a rows×cols matrix in a single contiguous
// backing array (two allocations total, independent of rows). The rows
// deliberately keep the full backing capacity so MatrixPool.Put can
// recover the block for reuse.
func NewMatrix(rows, cols int) [][]float64 {
	flat := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols]
	}
	return out
}

// MatrixPool recycles prediction output matrices across requests so the
// steady-state batch path does not allocate. Get returns a matrix with
// exactly the requested shape, reusing a pooled backing when its
// capacity suffices; Put returns one for reuse. The zero value is
// ready to use and safe for concurrent use.
type MatrixPool struct {
	pool sync.Pool
}

// pooledMatrix keeps the row headers and flat backing together so a
// reshaped Get can rebuild rows without allocating the backing again.
type pooledMatrix struct {
	rows [][]float64
	flat []float64
}

// Get returns a rows×cols matrix. Cells are not zeroed — the predict
// kernels overwrite every cell before it is read.
func (p *MatrixPool) Get(rows, cols int) [][]float64 {
	m, _ := p.pool.Get().(*pooledMatrix)
	if m == nil {
		m = &pooledMatrix{}
	}
	need := rows * cols
	if cap(m.flat) < need {
		m.flat = make([]float64, need)
	}
	if cap(m.rows) < rows {
		m.rows = make([][]float64, rows)
	}
	m.flat = m.flat[:need]
	m.rows = m.rows[:rows]
	for i := range m.rows {
		m.rows[i] = m.flat[i*cols : (i+1)*cols]
	}
	return m.rows
}

// Put recycles a matrix previously returned by Get or NewMatrix. The
// caller must not retain any row afterwards. Matrices whose rows were
// not carved from one contiguous block are silently dropped.
func (p *MatrixPool) Put(m [][]float64) {
	if len(m) == 0 || len(m[0]) == 0 {
		return
	}
	backing := m[0][:cap(m[0])]
	if len(backing) < len(m)*len(m[0]) {
		return // not a single-block matrix; let the GC have it
	}
	p.pool.Put(&pooledMatrix{rows: m[:0], flat: backing[:0]})
}

// PredictBatch predicts every row of X with r. Models that implement
// BatchIntoPredictor run their flattened kernel into a freshly shaped
// output matrix (two allocations, independent of batch size); for
// everything else the row-level Predict fans out across the shared
// worker pool (bounded by GOMAXPROCS), which is safe because fitted
// Regressors are immutable and Predict is read-only.
//
// An empty X short-circuits to a non-nil empty slice — no span, no pool
// dispatch — so callers marshaling the result never emit null rows.
//
// The context propagates the obs span, if any, into a
// "model.predict_batch" child span; cancellation is deliberately NOT
// honored — a batch always fills every output row, exactly as before
// the context parameter existed, so callers never see partial results.
// Row order is preserved and results are identical to a sequential
// Predict loop.
func PredictBatch(ctx context.Context, r Regressor, X [][]float64) [][]float64 {
	return PredictBatchInto(ctx, r, X, nil)
}

// PredictBatchInto is PredictBatch with a caller-owned output matrix:
// when out has len(X) rows it is filled in place and returned, so a
// pooled buffer makes the steady-state batch path allocation-free. A
// nil or mis-shaped out falls back to allocating. The returned matrix
// is always the one that was filled.
func PredictBatchInto(ctx context.Context, r Regressor, X, out [][]float64) [][]float64 {
	if len(X) == 0 {
		return [][]float64{}
	}
	ctx, span := obs.Start(context.WithoutCancel(ctx), "model.predict_batch")
	span.SetAttr("rows", len(X))
	defer span.End()
	if bi, ok := r.(BatchIntoPredictor); ok {
		if !shaped(out, len(X), bi.NumOutputs()) {
			out = NewMatrix(len(X), bi.NumOutputs())
		}
		bi.PredictBatchInto(ctx, X, out)
		return out
	}
	if len(X) == 1 {
		return [][]float64{r.Predict(X[0])}
	}
	if len(out) != len(X) {
		out = make([][]float64, len(X))
	}
	// Predict never fails, so fn returns nil and the pool cannot abort.
	_ = parallel.ForEach(ctx, len(X), 0, func(_ context.Context, i int) error {
		out[i] = r.Predict(X[i])
		return nil
	})
	return out
}

// shaped reports whether out is a ready-to-fill rows×cols matrix.
func shaped(out [][]float64, rows, cols int) bool {
	if len(out) != rows {
		return false
	}
	for _, row := range out {
		if len(row) != cols {
			return false
		}
	}
	return true
}
