package stats

import (
	"math"
	"math/bits"
	"sync"
)

// fftPlan holds the permutation and twiddle factors of one power-of-two
// transform size. Plans are built once per size and shared read-only.
type fftPlan struct {
	rev []int32
	// radix4 holds, for each radix-4 stage of quarter-width h in order,
	// w^j, w^2j and w^3j for j < h, w = exp(-2πi/4h), as three runs of
	// h values, back to back.
	radix4 []complex128
	// half holds exp(-2πik/n) for k < n/2.
	half []complex128
}

// maxFFTLog bounds the transform sizes: CountModes' certified pass
// takes grids of fewer than 2^(maxFFTLog-1) points, which need at most
// 2^maxFFTLog.
const maxFFTLog = 30

var fftPlans [maxFFTLog + 1]struct {
	once sync.Once
	plan *fftPlan
}

// fftPlanFor returns the shared plan for size n, a power of two.
func fftPlanFor(n int) *fftPlan {
	lg := bits.TrailingZeros(uint(n))
	e := &fftPlans[lg]
	e.once.Do(func() {
		p := &fftPlan{rev: make([]int32, n), half: make([]complex128, n/2)}
		for i := range p.rev {
			p.rev[i] = int32(bits.Reverse64(uint64(i)) >> (64 - max(lg, 1)))
		}
		for k := range p.half {
			s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
			p.half[k] = complex(c, s)
		}
		for h := 1 << (lg & 1); 4*h <= n; h *= 4 {
			for m := 1; m <= 3; m++ {
				for j := 0; j < h; j++ {
					s, c := math.Sincos(-2 * math.Pi * float64(m*j) / float64(4*h))
					p.radix4 = append(p.radix4, complex(c, s))
				}
			}
		}
		e.plan = p
	})
	return e.plan
}

// fft replaces a, whose length is a power of two, by its discrete
// Fourier transform Σ_k a_k·exp(-2πi·jk/n): a bit-reversal
// permutation, one radix-2 stage when log2 n is odd, then radix-4
// decimation-in-time stages.
func fft(a []complex128) {
	n := len(a)
	p := fftPlanFor(n)
	for i, r := range p.rev {
		if int(r) > i {
			a[i], a[r] = a[r], a[i]
		}
	}
	h := 1
	if bits.TrailingZeros(uint(n))&1 == 1 {
		for s := 0; s+1 < n; s += 2 {
			x, y := a[s], a[s+1]
			a[s], a[s+1] = x+y, x-y
		}
		h = 2
	}
	tw := p.radix4
	for ; 4*h <= n; h *= 4 {
		w1, w2, w3 := tw[:h], tw[h:2*h], tw[2*h:3*h]
		tw = tw[3*h:]
		for s := 0; s < n; s += 4 * h {
			blk := a[s : s+4*h]
			a0, a1, a2, a3 := blk[:h], blk[h:2*h], blk[2*h:3*h], blk[3*h:]
			a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
			w1, w2, w3 := w1[:len(a0)], w2[:len(a0)], w3[:len(a0)]
			for j := range a0 {
				x0 := a0[j]
				x1 := cmul(a1[j], w2[j])
				x2 := cmul(a2[j], w1[j])
				x3 := cmul(a3[j], w3[j])
				s01r, s01i := real(x0)+real(x1), imag(x0)+imag(x1)
				d01r, d01i := real(x0)-real(x1), imag(x0)-imag(x1)
				s23r, s23i := real(x2)+real(x3), imag(x2)+imag(x3)
				d23r, d23i := real(x2)-real(x3), imag(x2)-imag(x3)
				// -i·d23 = d23i - i·d23r
				a0[j] = complex(s01r+s23r, s01i+s23i)
				a2[j] = complex(s01r-s23r, s01i-s23i)
				a1[j] = complex(d01r+d23i, d01i-d23r)
				a3[j] = complex(d01r-d23i, d01i+d23r)
			}
		}
	}
}

// cmul multiplies two complex numbers without the NaN and infinity
// recovery of Go's complex128 product.
func cmul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(ar*br-ai*bi, ar*bi+ai*br)
}

// realForward sets y[f], f ≤ m, to kh[f] times the DFT of the real
// sequence v of length 2m packed in x as x[j] = v[2j] + i·v[2j+1]; it
// runs one complex transform of size m and leaves x transformed.
func realForward(y, x []complex128, kh []float64) {
	m := len(x)
	fft(x)
	tw := fftPlanFor(2 * m).half // exp(-iπk/m)
	for f := 0; f <= m; f++ {
		a, b := x[f&(m-1)], x[(m-f)&(m-1)]
		// V_f = E_f + exp(-iπf/m)·O_f with E_f = (X_f + conj X_{m-f})/2
		// the even samples' transform and O_f = (X_f - conj X_{m-f})/2i
		// the odd samples'.
		er, ei := 0.5*(real(a)+real(b)), 0.5*(imag(a)-imag(b))
		or, oi := 0.5*(imag(a)+imag(b)), -0.5*(real(a)-real(b))
		c, s := -1.0, 0.0
		if f < m {
			c, s = real(tw[f]), imag(tw[f])
		}
		k := kh[f]
		y[f] = complex((er+or*c-oi*s)*k, (ei+or*s+oi*c)*k)
	}
}

// realInverse sets x, of length m, to the inverse DFT of the real
// sequence v of length 2m whose transform is y[0..m] (the rest follows
// by conjugate symmetry), packed as x[j] = m·(v[2j] - i·v[2j+1]); it
// runs one complex transform of size m.
func realInverse(x, y []complex128) {
	m := len(x)
	tw := fftPlanFor(2 * m).half // exp(-iπk/m)
	for k := range x {
		a, b := y[k], y[m-k]
		// X_k = E_k + i·O_k with E_k = (Y_k + conj Y_{m-k})/2 the even
		// samples' transform and O_k = exp(iπk/m)·(Y_k - conj Y_{m-k})/2
		// the odd samples'. x takes conj X, so one forward transform
		// gives m·conj(x).
		er, ei := 0.5*(real(a)+real(b)), 0.5*(imag(a)-imag(b))
		dr, di := 0.5*(real(a)-real(b)), 0.5*(imag(a)+imag(b))
		c, s := real(tw[k]), -imag(tw[k])
		or, oi := dr*c-di*s, dr*s+di*c
		x[k] = complex(er-oi, -(ei + or))
	}
	fft(x)
}
