package modelstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/knn"
)

// fitKNN returns a fit func that trains a k-neighbour model on d and
// counts invocations.
func fitKNN(d *ml.Dataset, k int, calls *atomic.Int64) func() (ml.Regressor, error) {
	return func() (ml.Regressor, error) {
		calls.Add(1)
		reg := knn.New(k)
		if err := reg.Fit(d); err != nil {
			return nil, err
		}
		return reg, nil
	}
}

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewRegistry(st)
}

// TestRegistryTiers checks the load-or-fit order: the first resolve
// fits and persists, every later one loads the file.
func TestRegistryTiers(t *testing.T) {
	r := newTestRegistry(t)
	d := testDataset(1)
	fp := FingerprintDataset(d)
	key := KeySpec{UseCase: 1, System: "intel", Model: "knn", DatasetFP: fp}.Key()
	var calls atomic.Int64
	fit := fitKNN(d, 5, &calls)

	_, src, err := r.GetOrFit(key, fp, fit)
	if err != nil || src != SourceFit {
		t.Fatalf("first resolve: src=%v err=%v", src, err)
	}
	for i := 0; i < 2; i++ {
		_, src, err = r.GetOrFit(key, fp, fit)
		if err != nil || src != SourceDisk {
			t.Fatalf("resolve %d: src=%v err=%v", i+2, src, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fit ran %d times, want 1", got)
	}
	if s := r.Stats(); s != (Stats{DiskHits: 2, Misses: 1}) {
		t.Fatalf("stats %+v", s)
	}
}

func TestRegistryFitErrorRetries(t *testing.T) {
	r := newTestRegistry(t)
	d := testDataset(3)
	fp := FingerprintDataset(d)
	key := KeySpec{UseCase: 1, System: "intel", Model: "knn-err", DatasetFP: fp}.Key()
	boom := errors.New("boom")
	if _, _, err := r.GetOrFit(key, fp, func() (ml.Regressor, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed fit: %v", err)
	}
	if s := r.Stats(); s.FitErrors != 1 || s.Misses != 0 {
		t.Fatalf("stats after failure %+v", s)
	}
	if keys, err := r.Store().Keys(); err != nil || len(keys) != 0 {
		t.Fatalf("a failed fit persisted %v (err %v)", keys, err)
	}
	var calls atomic.Int64
	if _, src, err := r.GetOrFit(key, fp, fitKNN(d, 5, &calls)); err != nil || src != SourceFit {
		t.Fatalf("retry: src=%v err=%v", src, err)
	}
}

func TestRegistryCorruptFileFallsThroughToFit(t *testing.T) {
	r := newTestRegistry(t)
	d := testDataset(5)
	fp := FingerprintDataset(d)
	key := KeySpec{UseCase: 1, System: "intel", Model: "knn-corrupt", DatasetFP: fp}.Key()
	// Plant a damaged file under the key.
	path := filepath.Join(r.Store().Dir(), key+fileExt)
	if err := os.WriteFile(path, []byte("PVMSgarbage-that-is-long-enough-to-parse"), 0o644); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	_, src, err := r.GetOrFit(key, fp, fitKNN(d, 5, &calls))
	if err != nil || src != SourceFit {
		t.Fatalf("corrupt file resolve: src=%v err=%v", src, err)
	}
	if s := r.Stats(); s.LoadErrors != 1 {
		t.Fatalf("stats %+v", s)
	}
	// The refit overwrote the damage: a cold registry now disk-hits.
	r2 := NewRegistry(r.Store())
	if _, src, err := r2.GetOrFit(key, fp, fitKNN(d, 5, &calls)); err != nil || src != SourceDisk {
		t.Fatalf("reload after overwrite: src=%v err=%v", src, err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fit ran %d times, want 1", got)
	}
}

// TestRegistryRefreshSwapsAtomically checks that a refresh fits
// without reading the file and persists its model in place of the old
// one, that a failed refresh leaves the old file loadable, and that a
// failed save still hands back the refitted model.
func TestRegistryRefreshSwapsAtomically(t *testing.T) {
	r := newTestRegistry(t)
	d := testDataset(6)
	fp := FingerprintDataset(d)
	key := KeySpec{UseCase: 1, System: "intel", Model: "knn-refresh", DatasetFP: fp}.Key()
	var calls atomic.Int64
	first, _, err := r.GetOrFit(key, fp, fitKNN(d, 5, &calls))
	if err != nil {
		t.Fatal(err)
	}
	// A different k stands in for the refit on drifted data.
	refit, err := r.Refresh(key, fp, fitKNN(d, 7, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("fit ran %d times, want 2", calls.Load())
	}
	old, err := Encode(first, fp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(refit, fp)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(old, want) {
		t.Fatal("the stand-in refit encodes like the first model")
	}
	onDisk := func() []byte {
		t.Helper()
		reg, err := r.Store().Load(key, fp)
		if err != nil {
			t.Fatalf("load after refresh: %v", err)
		}
		b, err := Encode(reg, fp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(onDisk(), want) {
		t.Fatal("the stored file is not the refreshed model")
	}
	if s := r.Stats(); s.Refreshes != 1 || s.Misses != 1 || s.DiskHits != 0 {
		t.Fatalf("stats %+v", s)
	}

	boom := errors.New("boom")
	if _, err := r.Refresh(key, fp, func() (ml.Regressor, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed refresh: %v", err)
	}
	if !bytes.Equal(onDisk(), want) {
		t.Fatal("a failed refresh changed the stored file")
	}

	if err := os.RemoveAll(r.Store().Dir()); err != nil {
		t.Fatal(err)
	}
	if reg, err := r.Refresh(key, fp, fitKNN(d, 7, &calls)); err != nil || reg == nil {
		t.Fatalf("refresh with an unwritable store: reg=%v err=%v", reg, err)
	}
	if s := r.Stats(); s.SaveErrors != 1 || s.Refreshes != 2 || s.FitErrors != 1 {
		t.Fatalf("stats after a failed save %+v", s)
	}
}
