// Package distrep implements the three distribution representations the
// paper compares (Section III-B2): how a measured relative-time
// distribution is encoded as a target vector for the prediction models,
// and how a predicted vector is decoded back into a concrete sample set
// whose ECDF can be scored against the measured distribution.
//
//   - Histogram: the bins of a fixed-support histogram of relative time
//     (a discretized PDF);
//   - MaxEnt (the paper's "PyMaxEnt"): the first four moments, decoded by
//     maximum-entropy density reconstruction;
//   - PearsonRnd: the first four moments, decoded by sampling the Pearson
//     distribution with those moments (MATLAB pearsrnd).
package distrep

import (
	"fmt"
	"strings"

	"repro/internal/maxent"
	"repro/internal/pearson"
	"repro/internal/randx"
	"repro/internal/stats"
)

// Kind selects a representation family.
type Kind int

// The paper's three representations, plus the Quantile extension (not
// part of the paper's comparison; see QuantileRep).
const (
	Histogram Kind = iota
	MaxEnt
	PearsonRnd
	Quantile
)

// String names the representation as the paper does.
func (k Kind) String() string {
	switch k {
	case Histogram:
		return "Histogram"
	case MaxEnt:
		return "PyMaxEnt"
	case PearsonRnd:
		return "PearsonRnd"
	case Quantile:
		return "Quantile"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a representation name from a request or a command
// line ("" = the paper's best, PearsonRnd), case-insensitively.
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "", "pearsonrnd", "pearson":
		return PearsonRnd, nil
	case "histogram", "hist":
		return Histogram, nil
	case "pymaxent", "maxent":
		return MaxEnt, nil
	case "quantile":
		return Quantile, nil
	default:
		return 0, fmt.Errorf("unknown representation %q (want pearsonrnd, histogram, pymaxent, or quantile)", name)
	}
}

// Kinds lists the paper's representations in paper order.
func Kinds() []Kind { return []Kind{Histogram, MaxEnt, PearsonRnd} }

// KindsExtended additionally includes the Quantile extension.
func KindsExtended() []Kind { return []Kind{Histogram, MaxEnt, PearsonRnd, Quantile} }

// Representation encodes a measured relative-time sample into a target
// vector and decodes a (predicted) target vector into a sample set.
type Representation interface {
	// Name identifies the representation.
	Name() string
	// Dim is the length of the target vector.
	Dim() int
	// Encode turns a measured relative-time sample into a target vector.
	Encode(relTimes []float64) []float64
	// Decode reconstructs n relative-time samples from a (possibly
	// model-predicted, hence imperfect) target vector. Implementations
	// must tolerate out-of-range predictions and always return a usable
	// sample set.
	Decode(vec []float64, n int, rng *randx.RNG) []float64
}

// New constructs the representation of the given kind. bins applies to
// the Histogram representation only (the moment-based representations
// always have dimension 4).
func New(kind Kind, bins int) (Representation, error) {
	switch kind {
	case Histogram:
		if bins < 2 {
			return nil, fmt.Errorf("distrep: histogram needs >= 2 bins, got %d", bins)
		}
		return &HistogramRep{Lo: DefaultLo, Hi: DefaultHi, Bins: bins}, nil
	case MaxEnt:
		return &MaxEntRep{}, nil
	case PearsonRnd:
		return &PearsonRep{}, nil
	case Quantile:
		if bins < 2 {
			return nil, fmt.Errorf("distrep: quantile representation needs >= 2 quantiles, got %d", bins)
		}
		return NewQuantile(bins)
	default:
		return nil, fmt.Errorf("distrep: unknown kind %d", int(kind))
	}
}

// DefaultLo and DefaultHi bound the shared relative-time support of the
// Histogram representation. Relative times are normalized to mean 1;
// the support covers the fastest plausible runs through moderate
// stragglers, and out-of-range observations clamp to the edge bins.
const (
	DefaultLo = 0.7
	DefaultHi = 1.7
)

// DefaultBins is the bin count used in the main evaluation (the
// histogram-bin ablation sweeps it).
const DefaultBins = 50

// HistogramRep is the paper's Histogram representation.
type HistogramRep struct {
	Lo, Hi float64
	Bins   int
}

// Name implements Representation.
func (h *HistogramRep) Name() string { return fmt.Sprintf("Histogram(%d)", h.Bins) }

// Dim implements Representation.
func (h *HistogramRep) Dim() int { return h.Bins }

// Encode bins the relative times into a normalized histogram.
func (h *HistogramRep) Encode(relTimes []float64) []float64 {
	hist := stats.HistogramFromSample(relTimes, h.Lo, h.Hi, h.Bins)
	return hist.Normalized().Counts
}

// Decode treats the predicted vector as (possibly noisy) bin weights:
// negative weights are clamped to zero, and samples are drawn uniformly
// within bins. A degenerate all-zero prediction falls back to a point
// mass at relative time 1.
func (h *HistogramRep) Decode(vec []float64, n int, rng *randx.RNG) []float64 {
	if len(vec) != h.Bins {
		panic(fmt.Sprintf("distrep: histogram decode got %d weights, want %d", len(vec), h.Bins))
	}
	hist := stats.NewHistogram(h.Lo, h.Hi, h.Bins)
	var total float64
	for i, w := range vec {
		if w > 0 {
			hist.Counts[i] = w
			total += w
		}
	}
	if total <= 0 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 1
		}
		return out
	}
	return hist.SampleFromWeights(n, rng.Float64)
}

// MaxEntRep is the paper's PyMaxEnt representation: the target vector is
// the four moments; decoding reconstructs the maximum-entropy density
// with those moments and samples it.
//
// Decoding follows the PyMaxEnt workflow faithfully: the density
// exp(Σ λ_j·x^j) is solved in raw relative-time coordinates on the fixed
// shared support [DefaultLo, DefaultHi] with fixed-order quadrature and
// an undamped Newton iteration (see maxent.ReconstructRaw). This is the
// regime in which the real package operates — and the regime in which it
// struggles on very narrow "needle" distributions and extreme moment
// combinations, the weakness behind PyMaxEnt's last-place violins in the
// paper's Figures 4 and 7. When the reconstruction fails to converge,
// decoding falls back to the Gaussian matching the first two moments.
type MaxEntRep struct{}

// Name implements Representation.
func (*MaxEntRep) Name() string { return "PyMaxEnt" }

// Dim implements Representation.
func (*MaxEntRep) Dim() int { return 4 }

// Encode computes the four moments of the relative times.
func (*MaxEntRep) Encode(relTimes []float64) []float64 {
	return stats.ComputeMoments4(relTimes).Vector()
}

// Decode reconstructs and samples the maximum-entropy density.
func (*MaxEntRep) Decode(vec []float64, n int, rng *randx.RNG) []float64 {
	m := pearson.ClampFeasible(stats.Moments4FromVector(vec))
	if m.Std <= 0 {
		out := make([]float64, n)
		for i := range out {
			out[i] = m.Mean
		}
		return out
	}
	d, err := maxent.ReconstructRaw(maxent.RawMomentsFromMoments4(m), DefaultLo, DefaultHi)
	if err != nil {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.Normal(m.Mean, m.Std)
		}
		return out
	}
	return d.Sample(n, rng.Float64)
}

// PearsonRep is the paper's PearsonRnd representation: the target vector
// is the four moments; decoding draws samples from the Pearson-system
// distribution with those moments, after clamping them into the feasible
// region (model predictions regress each moment independently and can
// land slightly outside it).
type PearsonRep struct{}

// Name implements Representation.
func (*PearsonRep) Name() string { return "PearsonRnd" }

// Dim implements Representation.
func (*PearsonRep) Dim() int { return 4 }

// Encode computes the four moments of the relative times.
func (*PearsonRep) Encode(relTimes []float64) []float64 {
	return stats.ComputeMoments4(relTimes).Vector()
}

// Decode samples the Pearson distribution with the predicted moments.
func (*PearsonRep) Decode(vec []float64, n int, rng *randx.RNG) []float64 {
	m := pearson.ClampFeasible(stats.Moments4FromVector(vec))
	d, err := pearson.New(m)
	if err != nil {
		// ClampFeasible guarantees feasibility; reaching here means the
		// moments were degenerate — fall back to a Gaussian.
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.Normal(m.Mean, m.Std)
		}
		return out
	}
	return d.SampleN(rng, n)
}
