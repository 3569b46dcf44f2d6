package modelstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/ml"
)

// seal wraps a payload in a valid envelope of the given kind.
func seal(kind Kind, payload []byte) []byte {
	buf := append([]byte(magic), 0, 0, byte(kind), 0)
	binary.LittleEndian.PutUint16(buf[4:6], FormatVersion)
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// filled returns n copies of v.
func filled(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// appendStump writes one tree of a forest: a root splitting on feature
// feat at 0.5 over nFeat features, with a left leaf of wl ones and a
// right leaf of wr fives.
func appendStump(e *ml.WireEnc, nFeat, feat, wl, wr int) {
	for _, v := range []int{0, 1, 2, 0, 1, 2} { // configuration, depth, leaves
		e.Int(v)
	}
	e.Floats(filled(nFeat, 0))
	e.U8(0)
	e.Int(feat)
	e.F64(0.5)
	e.U8(1)
	e.Floats(filled(wl, 1))
	e.U8(1)
	e.Floats(filled(wr, 5))
}

// forestPayload writes a one-tree forest of nOut outputs.
func forestPayload(nOut, nFeat, feat, wl, wr int) []byte {
	var e ml.WireEnc
	for _, v := range []int{1, 0, 1, 1} { // NumTrees, MaxDepth, MinSamplesLeaf, MaxFeatures
		e.Int(v)
	}
	e.U64(0) // Seed
	e.Int(nOut)
	e.Int(1)
	appendStump(&e, nFeat, feat, wl, wr)
	return e.Bytes()
}

// xgbPayload writes a one-output, one-round booster whose tree splits
// on feature feat at 0.5 into leaves of weight 1 and 5.
func xgbPayload(feat int) []byte {
	var e ml.WireEnc
	e.Int(1) // NumRounds
	e.F64(1) // LearningRate
	e.Int(1) // MaxDepth
	e.F64(1) // Lambda
	e.F64(0) // Gamma
	e.F64(1) // MinChildWeight
	e.F64(1) // Subsample
	e.F64(1) // ColSample
	e.U64(0) // Seed
	e.Floats([]float64{0})
	e.Int(1) // ensembles
	e.Int(1) // trees
	e.U8(0)
	e.Int(feat)
	e.F64(0.5)
	e.U8(1)
	e.F64(1)
	e.U8(1)
	e.F64(5)
	return e.Bytes()
}

// TestDecodeRejectsMalformedTables checks that a node table the flat
// kernels could not walk is refused at decode as ml.ErrWire, not served:
// a negative feature reads the child index as a leaf offset, a feature
// beyond the fitted width indexes past the input, and a leaf of the
// wrong width reads past or short of the payload block.
func TestDecodeRejectsMalformedTables(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    Kind
		payload []byte
		bad     bool
	}{
		{"forest well formed", KindForest, forestPayload(2, 1, 0, 2, 2), false},
		{"forest negative feature", KindForest, forestPayload(2, 1, -1, 2, 2), true},
		{"forest feature beyond the importances", KindForest, forestPayload(2, 1, 7, 2, 2), true},
		{"forest leaves of unequal width", KindForest, forestPayload(2, 1, 0, 2, 3), true},
		{"forest leaves wider than nOut", KindForest, forestPayload(2, 1, 0, 3, 3), true},
		{"xgb well formed", KindXGB, xgbPayload(0), false},
		{"xgb negative feature", KindXGB, xgbPayload(-1), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, _, err := Decode(seal(tc.kind, tc.payload))
			if !tc.bad {
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if lo, hi := reg.Predict([]float64{0}), reg.Predict([]float64{1}); lo[0] != 1 || hi[0] != 5 {
					t.Fatalf("Predict = %v, %v, want 1 and 5", lo, hi)
				}
				return
			}
			if !errors.Is(err, ml.ErrWire) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt wrapping ml.ErrWire", err)
			}
		})
	}
}

// widthPredictor is a decoded model that reports its input width.
type widthPredictor interface {
	ml.Regressor
	NumFeatures() int
}

// FuzzModelDecode feeds arbitrary payloads, re-checksummed, under each
// kind byte. Decode must either refuse a payload or return a model
// that predicts on a probe of its fitted width without panicking.
func FuzzModelDecode(f *testing.F) {
	for _, kind := range allKinds {
		for _, seed := range []uint64{1, 2} {
			d := testDataset(seed)
			data, err := Encode(fitKind(f, kind, d, seed), 0)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(kind), data[headerSize:len(data)-trailerSize])
		}
	}
	f.Add(uint8(KindForest), forestPayload(2, 1, -1, 2, 2))
	f.Add(uint8(KindXGB), xgbPayload(7))
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		reg, _, err := Decode(seal(Kind(kind), payload))
		if err != nil {
			return
		}
		m, ok := reg.(widthPredictor)
		if !ok {
			t.Fatalf("%T does not report its input width", reg)
		}
		x := make([]float64, m.NumFeatures())
		for j := range x {
			x[j] = float64(j%3) - 1
		}
		m.Predict(x)
		if len(x) > 0 {
			x[0] = math.NaN()
			m.Predict(x)
		}
	})
}
