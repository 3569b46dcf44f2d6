package modelstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/knn"
	"repro/internal/ml/xgb"
	"repro/internal/randx"
)

// testDataset builds a small deterministic multi-output problem.
func testDataset(seed uint64) *ml.Dataset {
	rng := randx.New(seed)
	const n, nf, no = 24, 5, 3
	d := &ml.Dataset{FeatureNames: []string{"a", "b", "c", "d", "e"}}
	for i := 0; i < n; i++ {
		x := make([]float64, nf)
		for j := range x {
			x[j] = rng.Uniform(-2, 2)
		}
		y := make([]float64, no)
		y[0] = x[0]*1.5 - x[2] + rng.Normal(0, 0.1)
		y[1] = math.Abs(x[1]) + x[3]*x[3]
		y[2] = x[4] + rng.Normal(0, 0.05)
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// fitKind trains one model of the given kind on d.
func fitKind(t testing.TB, kind Kind, d *ml.Dataset, seed uint64) ml.Regressor {
	t.Helper()
	var reg ml.Regressor
	switch kind {
	case KindForest:
		reg = forest.New(forest.Config{NumTrees: 12, Seed: seed})
	case KindXGB:
		reg = xgb.New(xgb.Config{NumRounds: 15, MaxDepth: 3, Seed: seed})
	case KindKNN:
		reg = knn.New(5)
	default:
		t.Fatalf("fitKind: %v", kind)
	}
	if err := reg.Fit(d); err != nil {
		t.Fatalf("fit %v: %v", kind, err)
	}
	return reg
}

var allKinds = []Kind{KindForest, KindXGB, KindKNN}

// TestLoadedPredictsBitIdentical is the core persistence contract: for
// every storable family and several seeds, an encode/decode round trip
// yields the fitted model itself. It re-encodes to the same bytes, and
// its row and batch kernels answer bit for bit as the fitted model's
// do, on probes with NaN features.
func TestLoadedPredictsBitIdentical(t *testing.T) {
	for _, kind := range allKinds {
		for _, seed := range []uint64{1, 2, 3} {
			d := testDataset(seed)
			reg := fitKind(t, kind, d, seed)
			data, err := Encode(reg, FingerprintDataset(d))
			if err != nil {
				t.Fatalf("%v seed %d: encode: %v", kind, seed, err)
			}
			loaded, h, err := Decode(data)
			if err != nil {
				t.Fatalf("%v seed %d: decode: %v", kind, seed, err)
			}
			if h.Kind != kind || h.Version != FormatVersion || h.Fingerprint != FingerprintDataset(d) {
				t.Fatalf("%v seed %d: header %+v", kind, seed, h)
			}
			again, err := Encode(loaded, FingerprintDataset(d))
			if err != nil {
				t.Fatalf("%v seed %d: re-encode: %v", kind, seed, err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("%v seed %d: re-encoded model differs from the stored bytes", kind, seed)
			}
			probe := randx.New(seed ^ 0xBEEF)
			X := make([][]float64, 20)
			for q := range X {
				X[q] = make([]float64, len(d.X[0]))
				for j := range X[q] {
					X[q][j] = probe.Uniform(-2.5, 2.5)
				}
				if q%2 == 1 {
					X[q][(q/2)%len(X[q])] = math.NaN()
				}
			}
			want := ml.PredictBatch(context.Background(), reg, X)
			got := ml.PredictBatch(context.Background(), loaded, X)
			for q, x := range X {
				row := loaded.Predict(x)
				if len(row) != len(want[q]) {
					t.Fatalf("%v seed %d: output arity %d vs %d", kind, seed, len(row), len(want[q]))
				}
				for j := range want[q] {
					w := math.Float64bits(want[q][j])
					if math.Float64bits(got[q][j]) != w || math.Float64bits(row[j]) != w {
						t.Fatalf("%v seed %d probe %d out %d: loaded batch %v, row %v != fitted %v",
							kind, seed, q, j, got[q][j], row[j], want[q][j])
					}
				}
			}
		}
	}
}

// reseal recomputes the CRC trailer after a deliberate header mutation,
// so tests can reach the checks behind the checksum.
func reseal(data []byte) []byte {
	body := data[:len(data)-trailerSize]
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

func encodeOne(t *testing.T) []byte {
	t.Helper()
	d := testDataset(7)
	data, err := Encode(fitKind(t, KindKNN, d, 7), FingerprintDataset(d))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeRejectsDamage(t *testing.T) {
	data := encodeOne(t)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"short header", func(b []byte) []byte { return b[:10] }, ErrTruncated},
		{"mid payload cut", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"missing trailer", func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}, ErrBadMagic},
		{"payload bit flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[headerSize+3] ^= 0x40
			return c
		}, ErrCorrupt},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xAA) }, ErrCorrupt},
		{"version skew", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint16(c[4:6], FormatVersion+1)
			return reseal(c)
		}, ErrVersionSkew},
		{"unknown kind", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[6] = 0xEE
			return reseal(c)
		}, ErrUnknownKind},
		{"garbage payload with valid checksum", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			for i := headerSize; i < len(c)-trailerSize; i++ {
				c[i] = byte(i * 31)
			}
			return reseal(c)
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Decode(tc.mutate(data))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want errors.Is(%v)", err, tc.wantErr)
			}
		})
	}
}

type fakeRegressor struct{}

func (fakeRegressor) Fit(*ml.Dataset) error         { return nil }
func (fakeRegressor) Predict(x []float64) []float64 { return nil }
func (fakeRegressor) Name() string                  { return "fake" }

func TestEncodeRejectsUnsupportedAndUnfitted(t *testing.T) {
	if _, err := Encode(fakeRegressor{}, 1); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("unsupported: got %v", err)
	}
	if _, err := Encode(knn.New(5), 1); err == nil {
		t.Fatal("encoding an unfitted model should fail")
	}
}

func TestFingerprintDataset(t *testing.T) {
	a, b := testDataset(1), testDataset(1)
	if FingerprintDataset(a) != FingerprintDataset(b) {
		t.Fatal("identical datasets must share a fingerprint")
	}
	b.Y[3][1] = math.Nextafter(b.Y[3][1], math.Inf(1))
	if FingerprintDataset(a) == FingerprintDataset(b) {
		t.Fatal("a one-ULP change must change the fingerprint")
	}
	c := testDataset(1)
	c.FeatureNames = append([]string(nil), c.FeatureNames...)
	c.FeatureNames[0] = "renamed"
	if FingerprintDataset(a) == FingerprintDataset(c) {
		t.Fatal("feature renames must change the fingerprint")
	}
}

func TestKeySpecKey(t *testing.T) {
	base := KeySpec{UseCase: 1, System: "intel", Holdout: "npb/bt", Model: "rf{trees=100,seed=1}", DatasetFP: 42}
	if k := base.Key(); len(k) != 64 || strings.ToLower(k) != k {
		t.Fatalf("key %q is not lower-hex sha256", k)
	}
	variants := []KeySpec{
		{UseCase: 2, System: "intel", Holdout: "npb/bt", Model: base.Model, DatasetFP: 42},
		{UseCase: 1, System: "amd", Holdout: "npb/bt", Model: base.Model, DatasetFP: 42},
		{UseCase: 1, System: "intel", Holdout: "", Model: base.Model, DatasetFP: 42},
		{UseCase: 1, System: "intel", Holdout: "npb/bt", Model: "rf{trees=200,seed=1}", DatasetFP: 42},
		{UseCase: 1, System: "intel", Holdout: "npb/bt", Model: base.Model, DatasetFP: 43},
	}
	seen := map[string]bool{base.Key(): true}
	for i, v := range variants {
		if seen[v.Key()] {
			t.Fatalf("variant %d collides: %+v", i, v)
		}
		seen[v.Key()] = true
	}
	if base.Key() != (KeySpec{UseCase: 1, System: "intel", Holdout: "npb/bt", Model: base.Model, DatasetFP: 42}).Key() {
		t.Fatal("key derivation must be deterministic")
	}
}

func TestStoreSaveLoad(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := testDataset(3)
	fp := FingerprintDataset(d)
	reg := fitKind(t, KindForest, d, 3)
	key := KeySpec{UseCase: 1, System: "intel", Model: "rf", DatasetFP: fp}.Key()

	if _, err := st.Load(key, fp); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load before save: %v", err)
	}
	if err := st.Save(key, reg, fp); err != nil {
		t.Fatal(err)
	}
	loaded, err := st.Load(key, fp)
	if err != nil {
		t.Fatal(err)
	}
	x := d.X[0]
	if got, want := loaded.Predict(x), reg.Predict(x); math.Float64bits(got[0]) != math.Float64bits(want[0]) {
		t.Fatalf("loaded prediction %v != %v", got, want)
	}
	if _, err := st.Load(key, fp+1); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("fingerprint mismatch: %v", err)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("keys = %v", keys)
	}
	// The atomic writer must not leave temp files behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".pvm-tmp-") {
			t.Fatalf("stray temp file %s", e.Name())
		}
	}
	if err := st.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(key, fp); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load after delete: %v", err)
	}
	if err := st.Delete(key); err != nil {
		t.Fatalf("double delete should be a no-op: %v", err)
	}
}

func TestStoreRejectsMalformedKeys(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../../etc/passwd", "ABCDEF", "has space", "x/y"} {
		if _, err := st.Load(key, 0); err == nil {
			t.Fatalf("key %q should be rejected", key)
		}
	}
}

func TestStoreLoadRejectsCorruptFile(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(st.Dir(), key+fileExt), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(key, 0); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) {
		t.Fatalf("corrupt file: %v", err)
	}
}
