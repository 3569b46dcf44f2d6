package randx

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random number generator. It wraps a PCG source
// and layers the distribution samplers this project needs on top of it.
//
// RNG is not safe for concurrent use; use Split to derive independent
// streams for parallel workers.
type RNG struct {
	src *rand.Rand
	// seeds retained so Split can derive child streams deterministically.
	seed1, seed2 uint64
	children     uint64
}

// New returns an RNG seeded with the pair (seed, seed^0x9E3779B97F4A7C15).
func New(seed uint64) *RNG {
	return NewPair(seed, seed^0x9E3779B97F4A7C15)
}

// NewPair returns an RNG seeded from two 64-bit values.
func NewPair(s1, s2 uint64) *RNG {
	return &RNG{src: rand.New(rand.NewPCG(s1, s2)), seed1: s1, seed2: s2}
}

// Split derives a new, statistically independent RNG from this one.
// Successive calls yield distinct streams; the derivation depends only on
// the parent's seeds and the number of prior Split calls, not on how much
// randomness the parent has consumed, so parallel decomposition does not
// perturb sequential results.
func (r *RNG) Split() *RNG {
	r.children++
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	return NewPair(mix(r.seed1+r.children*0x9E3779B97F4A7C15), mix(r.seed2-r.children*0xC2B2AE3D27D4EB4F))
}

// SplitN derives n independent child RNGs, equivalent to calling Split
// n times. It is the pre-dispatch idiom for parallel work: splitting
// every per-item stream up front (in item order) makes a parallel
// computation bit-identical to its sequential counterpart regardless of
// worker count or completion order.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.src.Float64() }

// IntN returns a uniform integer in [0, n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Normal returns a normal variate with the given mean and standard
// deviation. sigma must be non-negative.
func (r *RNG) Normal(mean, sigma float64) float64 {
	if sigma < 0 {
		panic(fmt.Sprintf("randx: Normal sigma must be >= 0, got %v", sigma))
	}
	return mean + sigma*r.src.NormFloat64()
}

// StdNormal returns a standard normal variate.
func (r *RNG) StdNormal() float64 { return r.src.NormFloat64() }

// Exponential returns an exponential variate with the given rate λ > 0
// (mean 1/λ).
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("randx: Exponential rate must be > 0, got %v", rate))
	}
	return r.src.ExpFloat64() / rate
}

// Gamma returns a gamma variate with shape alpha > 0 and scale theta > 0
// (mean alpha*theta), using the Marsaglia–Tsang squeeze method, with the
// standard alpha < 1 boost.
func (r *RNG) Gamma(alpha, theta float64) float64 {
	if alpha <= 0 || theta <= 0 {
		panic(fmt.Sprintf("randx: Gamma requires alpha, theta > 0, got alpha=%v theta=%v", alpha, theta))
	}
	if alpha < 1 {
		// Boost: X ~ Gamma(alpha+1) * U^{1/alpha}.
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(alpha+1, theta) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.src.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * theta
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * theta
		}
	}
}

// Beta returns a beta variate with shape parameters a, b > 0 on (0, 1),
// via the ratio of gammas.
func (r *RNG) Beta(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		panic(fmt.Sprintf("randx: Beta requires a, b > 0, got a=%v b=%v", a, b))
	}
	x := r.Gamma(a, 1)
	y := r.Gamma(b, 1)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// BetaPrime returns a beta-prime (Pearson type VI) variate with shape
// parameters a, b > 0: X/(1-X) for X ~ Beta(a, b). Its mean is a/(b-1)
// for b > 1.
func (r *RNG) BetaPrime(a, b float64) float64 {
	x := r.Beta(a, b)
	// Guard against x == 1 (probability zero but floats happen).
	if x >= 1 {
		x = math.Nextafter(1, 0)
	}
	return x / (1 - x)
}

// InvGamma returns an inverse-gamma (Pearson type V) variate with shape
// alpha > 0 and scale beta > 0: 1/G for G ~ Gamma(alpha, 1/beta).
func (r *RNG) InvGamma(alpha, beta float64) float64 {
	if alpha <= 0 || beta <= 0 {
		panic(fmt.Sprintf("randx: InvGamma requires alpha, beta > 0, got alpha=%v beta=%v", alpha, beta))
	}
	g := r.Gamma(alpha, 1/beta)
	for g == 0 {
		g = r.Gamma(alpha, 1/beta)
	}
	return 1 / g
}

// StudentT returns a Student-t variate with nu > 0 degrees of freedom,
// via Z / sqrt(ChiSq(nu)/nu).
func (r *RNG) StudentT(nu float64) float64 {
	if nu <= 0 {
		panic(fmt.Sprintf("randx: StudentT requires nu > 0, got %v", nu))
	}
	z := r.src.NormFloat64()
	chi2 := r.Gamma(nu/2, 2)
	for chi2 == 0 {
		chi2 = r.Gamma(nu/2, 2)
	}
	return z / math.Sqrt(chi2/nu)
}

// Lognormal returns exp(Normal(mu, sigma)).
func (r *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with a
// positive sum.
func (r *RNG) Categorical(weights []float64) int {
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("randx: Categorical weight %d is invalid: %v", i, w))
		}
		total += w
	}
	if total <= 0 {
		panic("randx: Categorical weights sum to zero")
	}
	u := r.src.Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if u < cum {
			return i
		}
	}
	return len(weights) - 1 // rounding fell off the end
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle randomizes the order of n elements using the provided swap
// function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// SampleWithReplacement returns k indices drawn uniformly with
// replacement from [0, n).
func (r *RNG) SampleWithReplacement(n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = r.src.IntN(n)
	}
	return out
}

// Sampler draws subsets without replacement into scratch it keeps
// between calls, so a caller that samples repeatedly (per tree, per
// node) allocates once. The zero value is ready to use. A Sampler is
// not safe for concurrent use.
type Sampler struct {
	perm []int
	mark []bool
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly
// from [0, n), in increasing order. It makes the draws of r.Perm(n) (a
// full Fisher–Yates shuffle) and returns the set of that permutation's
// first k entries, so it selects the same indices as sorting
// r.Perm(n)[:k] would, without the sort. The result aliases s and is
// valid until the next call. It panics if k > n.
func (s *Sampler) SampleWithoutReplacement(r *RNG, n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("randx: cannot sample %d of %d without replacement", k, n))
	}
	if cap(s.perm) < n {
		s.perm = make([]int, n)
		s.mark = make([]bool, n)
	}
	perm, mark := s.perm[:n], s.mark[:n]
	for i := range perm {
		perm[i] = i
	}
	// rand.Rand.Perm's shuffle, draw for draw.
	for i := n - 1; i > 0; i-- {
		j := r.src.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for _, i := range perm[:k] {
		mark[i] = true
	}
	// The marks hold the set, so perm is free to take the result.
	out := perm[:0]
	for i, m := range mark {
		if m {
			out = append(out, i)
			mark[i] = false
		}
	}
	return out
}
