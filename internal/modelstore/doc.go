// Package modelstore persists trained models so a process restart (or
// a fleet scale-out) loads seconds of training from disk in
// milliseconds instead of re-paying it.
//
// It has three layers:
//
//   - Format: a versioned binary envelope — magic, format version,
//     model kind, dataset fingerprint, payload, CRC32 trailer — around
//     the per-model codecs living beside each model
//     (internal/ml/{tree,forest,xgb,knn}). Floats travel as IEEE-754
//     bits, so a loaded model predicts bit-identically to the one that
//     was saved. Damaged or incompatible files are rejected with typed
//     errors (ErrBadMagic, ErrVersionSkew, ErrCorrupt, ErrTruncated,
//     ErrUnknownKind) that callers treat as a cache miss, never as data.
//
//   - Store: a content-addressed directory of model files written
//     atomically (temp file + rename, the repo's only sanctioned use of
//     os.Rename — enforced by the pathpolicy analyzer). The address is
//     a hash of everything that determines the fitted model's bits
//     (KeySpec: use case, system, holdout, resolved hyperparameters,
//     dataset fingerprint), so a stale entry is structurally
//     impossible: if anything changed, the key changed and the old file
//     is simply never read again.
//
//   - Registry: a load-or-fit front for the store. GetOrFit loads the
//     disk copy or fits and persists; Refresh always fits and persists.
//     It holds no models — core.Predictor's per-key cells are their one
//     in-memory home — and counts disk hits, misses, refreshes, and
//     load/save/fit errors for the serving layer's gauges.
//
// The package sits below internal/core: it knows about ml.Regressor
// implementations but nothing about predictors, breakers, or HTTP.
package modelstore
