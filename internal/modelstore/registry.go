package modelstore

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/ml"
)

// Source reports where GetOrFit found a model.
type Source int

// Cheapest first: loaded from disk, freshly fitted.
const (
	SourceDisk Source = iota
	SourceFit
)

// String names the source for spans and logs.
func (s Source) String() string {
	switch s {
	case SourceDisk:
		return "disk"
	case SourceFit:
		return "fit"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Registry is a counting load-or-fit front of a Store. It holds no
// models: the caller keeps what it resolves, and serializes the
// resolutions of one key itself (core.Predictor holds a per-key mutex
// across the call). Calls for keys that share a content address may
// run at once; they write identical bytes through the store's atomic
// rename. All methods are safe for concurrent use.
type Registry struct {
	store *Store

	diskHits, misses, refreshes       atomic.Uint64
	loadErrors, saveErrors, fitErrors atomic.Uint64
}

// NewRegistry wraps a store.
func NewRegistry(store *Store) *Registry { return &Registry{store: store} }

// Store exposes the backing store.
func (r *Registry) Store() *Store { return r.store }

// GetOrFit returns the model for key: the disk copy (fingerprint-
// checked against fp), else the result of fit, persisted back so the
// next process starts warm. A failed fit persists nothing, so a later
// call retries.
func (r *Registry) GetOrFit(key string, fp uint64, fit func() (ml.Regressor, error)) (ml.Regressor, Source, error) {
	reg, err := r.store.Load(key, fp)
	if err == nil {
		r.diskHits.Add(1)
		return reg, SourceDisk, nil
	}
	if !errors.Is(err, ErrNotFound) {
		// Corrupt, truncated, skewed, or mismatched file: count it and
		// fall through to a refit that overwrites it.
		r.loadErrors.Add(1)
	}
	reg, err = r.fitAndSave(key, fp, fit)
	if err != nil {
		return nil, SourceFit, err
	}
	r.misses.Add(1)
	return reg, SourceFit, nil
}

// Refresh fits key without consulting the disk copy and persists the
// result — the drift refitter's entry point, where the stored model is
// known to be stale. A failed fit leaves the file as it was.
func (r *Registry) Refresh(key string, fp uint64, fit func() (ml.Regressor, error)) (ml.Regressor, error) {
	reg, err := r.fitAndSave(key, fp, fit)
	if err != nil {
		return nil, fmt.Errorf("modelstore: refresh %s: %w", key, err)
	}
	r.refreshes.Add(1)
	return reg, nil
}

// fitAndSave runs fit and persists its model. A failed save is counted
// and the model still returned: persistence is an optimization, and
// serving the fitted model matters more than the disk write.
func (r *Registry) fitAndSave(key string, fp uint64, fit func() (ml.Regressor, error)) (ml.Regressor, error) {
	reg, err := fit()
	if err != nil {
		r.fitErrors.Add(1)
		return nil, err
	}
	if err := r.store.Save(key, reg, fp); err != nil {
		r.saveErrors.Add(1)
	}
	return reg, nil
}

// Stats is a snapshot of the registry counters.
type Stats struct {
	// DiskHits loaded from the store; Misses resolved by fitting;
	// Refreshes forced refits.
	DiskHits, Misses, Refreshes uint64
	// LoadErrors counts rejected files (corrupt, skewed, mismatched);
	// SaveErrors failed persists; FitErrors failed fits.
	LoadErrors, SaveErrors, FitErrors uint64
}

// Stats returns a snapshot of the counters.
func (r *Registry) Stats() Stats {
	return Stats{
		DiskHits:   r.diskHits.Load(),
		Misses:     r.misses.Load(),
		Refreshes:  r.refreshes.Load(),
		LoadErrors: r.loadErrors.Load(),
		SaveErrors: r.saveErrors.Load(),
		FitErrors:  r.fitErrors.Load(),
	}
}
