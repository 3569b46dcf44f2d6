package stats

import (
	"math"
	"math/bits"
	"sync"
)

// The certified mode count. CountModes' answer is a function of the
// exact values gridDensity produces: a grid point is a mode when its
// scattered density is above its left neighbour's, at least its right
// neighbour's, and at least the threshold. certified decides each of
// those comparisons from a cheap estimate whose error is bounded, so
// its count equals the scatter's without running it. DESIGN.md
// ("Counting KDE modes") gives the argument term by term.
//
// All densities here are unscaled kernel sums Σ_i exp(-u_i²/2); the
// scaling gridDensity applies afterwards is monotone, and the slack
// for its rounding is part of every tolerance.
const (
	// scatterDev bounds how far gridDensity's sums stray from the exact
	// sums at the same grid points, as a fraction of the peak.
	// checkModesMatchDirect asserts it on every corpus; gridDensity's
	// own analysis puts its rounding ten times lower.
	scatterDev = 1e-12
	// directMargin is the smallest gap, as a fraction of the peak, at
	// which two direct sums (or a direct sum and the threshold) decide
	// a comparison. Any smaller gap sends the call to the scatter.
	directMargin = 3e-12
	// binCutoff sets the FFT's zero padding: the kernel's periodic
	// images stay more than binCutoff bandwidths from every grid point.
	binCutoff = 8
	// directCutoff is the half-width, in bandwidths, of the direct
	// sums; each sample left out adds less than exp(-40.5).
	directCutoff = 9
	// maxBinStep is the widest grid step, in bandwidths, the cheap pass
	// takes on: its error grows as the step to the fourth, and the
	// scatter's cost falls as the step grows.
	maxBinStep = 0.5
	// maxDirect caps the grid points one call sums directly; a sample
	// that needs more is cheaper to scatter.
	maxDirect = 48

	// |φ⁽⁴⁾| for φ(u) = exp(-u²/2) has its local maxima at u = 0 and
	// u ≈ ±1.356 and ±2.857 (the roots of u⁵ - 10u³ + 15u); phi4Max0,
	// phi4Max1 and phi4Max2 are its values there, rounded up.
	phi4Crit1, phi4Crit2         = 1.3556261799742657, 2.8569700138728056
	phi4Max0, phi4Max1, phi4Max2 = 3, 1.8549, 0.3488

	roundUnit = 0x1p-52
)

// modeBranch names the pass that decided a count.
type modeBranch int

const (
	// branchCheap: every comparison separated on the FFT estimate.
	branchCheap modeBranch = iota
	// branchDirect: some comparisons needed direct sums.
	branchDirect
	// branchScatter: gridDensity decided, because a direct-sum margin
	// was too small, a threshold comparison stayed open, the sample
	// needed too many direct sums, or the grid step exceeds maxBinStep.
	branchScatter
)

// countModes counts the modes CountModes defines and reports which
// pass decided them.
func (k *KDE) countModes(gridN int, relThreshold float64) (int, modeBranch) {
	lo, hi := k.Support()
	if gridN < 8 {
		gridN = 8
	}
	step := (hi - lo) / float64(gridN-1)
	s := modePool.Get().(*modeScratch)
	modes, branch, ok := s.certified(k.sample, k.Bandwidth, lo, step, gridN, relThreshold)
	modePool.Put(s)
	if ok {
		return modes, branch
	}
	return countMaxima(k.gridDensity(lo, step, gridN), relThreshold), branchScatter
}

// countMaxima counts the strict local maxima of ys at or above
// relThreshold × max(ys).
func countMaxima(ys []float64, relThreshold float64) int {
	peak := ys[0]
	for _, y := range ys[1:] {
		peak = max(peak, y)
	}
	threshold := relThreshold * peak
	modes := 0
	for i := 1; i < len(ys)-1; i++ {
		if ys[i] > ys[i-1] && ys[i] >= ys[i+1] && ys[i] >= threshold {
			modes++
		}
	}
	return modes
}

// modeScratch holds one call's buffers; calls draw them from modePool,
// so that a warm call allocates nothing.
type modeScratch struct {
	z, y           []complex128
	c, rw, est, hw []float64
	kh, g0, ek, m4 []float64
	state          []uint8
	pending        []int32
}

var modePool = sync.Pool{New: func() any { return new(modeScratch) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Per-point state of a certified count: which error bound hw holds.
const (
	pointUniform uint8 = iota
	pointLocal
	pointDirect
)

// verdict is a three-valued comparison outcome.
type verdict int8

const (
	unknown verdict = iota
	yes
	no
)

// greater decides a > b for a ∈ [ea-ha, ea+ha], b ∈ [eb-hb, eb+hb];
// orEqual decides a ≥ b instead.
func greater(ea, ha, eb, hb float64, orEqual bool) verdict {
	switch {
	case ea-ha > eb+hb || orEqual && ea-ha >= eb+hb:
		return yes
	case ea+ha < eb-hb || !orEqual && ea+ha <= eb-hb:
		return no
	}
	return unknown
}

// isMode decides whether grid point i is a mode, given each point's
// estimate est and error half-width hw and the threshold's range.
func isMode(est, hw []float64, i int, tlo, thi float64) verdict {
	e, h := est[i], hw[i]
	th := unknown
	switch {
	case e-h >= thi:
		th = yes
	case e+h < tlo:
		return no
	}
	up := greater(e, h, est[i-1], hw[i-1], false)
	down := greater(e, h, est[i+1], hw[i+1], true)
	if up == no || down == no {
		return no
	}
	if up == yes && down == yes && th == yes {
		return yes
	}
	return unknown
}

// certified counts the modes of the Gaussian KDE of xs (bandwidth bw)
// on the grid lo + j·step, j < g, with the threshold rel × peak. ok is
// false when it cannot certify the count; the caller then scatters.
//
// The pass:
//  1. Bins xs by cubic interpolation: a sample at lo + (j+t)·step puts
//     the Lagrange weights of t on points j-1 … j+2, so that its binned
//     contribution to any grid point is the cubic interpolant of its
//     kernel through those four points. The interpolation remainder is
//     at most r(t)·d⁴·max|φ⁽⁴⁾| near the sample, d = step/bw and
//     r(t) = (1+t)·t·(1-t)·(2-t)/24.
//  2. Convolves the bins with φ(k·d) by one real FFT pair, giving an
//     estimate of every grid sum; the kernel's transform is known in
//     closed form.
//  3. Bounds the estimate's error by the remainder, the kernel's
//     periodic images, and the rounding of the binning and the FFT,
//     and widens each interval by scatterDev of the peak.
//  4. Decides every point whose comparisons separate: first with a
//     uniform bound, then with each undecided point's local bound,
//     then with direct sums at the points still undecided.
func (s *modeScratch) certified(xs []float64, bw, lo, step float64, g int, rel float64) (modes int, branch modeBranch, ok bool) {
	if !(bw > 0 && step > 0) || math.IsNaN(rel) || g >= 1<<(maxFFTLog-1) {
		return 0, 0, false
	}
	n := len(xs)
	inv := 1 / bw
	d := step * inv
	invStep := 1 / step
	if !(d > 0 && d <= maxBinStep) || math.IsInf(invStep, 0) {
		return 0, 0, false
	}
	L := g - 1 // the padding, in grid steps
	if w := math.Ceil(binCutoff / d); w < float64(L) {
		L = int(w)
	}
	nfft := 1 << bits.Len(uint(g+L-1))
	mh := nfft / 2

	// 1. Cubic binning. rw[j] sums r(t) over the samples in cell j.
	s.c, s.rw = grow(s.c, nfft), grow(s.rw, g)
	c, rw := s.c, s.rw
	clear(c)
	clear(rw)
	var rsum float64
	for _, x := range xs {
		pos := (x - lo) * invStep
		if !(pos >= 1 && pos < float64(g-2)) {
			return 0, 0, false
		}
		j := int(pos)
		t := pos - float64(j)
		a, b := t*(t-1), (t+1)*(t-2)
		w := c[j-1 : j+3]
		w[0] -= a * (t - 2) / 6
		w[1] += b * (t - 1) / 2
		w[2] -= b * t / 2
		w[3] += a * (t + 1) / 6
		r := a * b / 24
		rw[j] += r
		rsum += r
	}
	var c1, c2 float64
	for _, v := range c[:g] {
		c1 += math.Abs(v)
		c2 += v * v
	}

	// 2. The convolution: a real FFT of the bins, a product with the
	// kernel's transform, and a real inverse FFT, each run as one
	// complex transform of half the size.
	s.kh, s.g0 = grow(s.kh, mh+1), grow(s.g0, nfft+1)
	spectrumErr := gaussSpectrum(s.kh, s.g0, nfft, d)
	s.z, s.y = grow(s.z, mh), grow(s.y, mh+1)
	z, y := s.z, s.y
	for j := range z {
		z[j] = complex(c[2*j], c[2*j+1])
	}
	realForward(y, z, s.kh)
	realInverse(z, y)
	s.est, s.hw = grow(s.est, g), grow(s.hw, g)
	est, hw := s.est, s.hw
	scale := 1 / float64(mh)
	for j := 0; j+1 < g; j += 2 {
		v := z[j>>1]
		est[j], est[j+1] = real(v)*scale, -imag(v)*scale
	}
	if g&1 == 1 {
		est[g-1] = real(z[g>>1]) * scale
	}
	emax := est[0]
	for _, e := range est {
		emax = max(emax, e)
	}

	// 3. Error bounds, absolute, in unscaled kernel sums. fixed holds
	// the terms that do not depend on where the samples sit: the FFT's
	// rounding (from the ℓ1 and ℓ2 norms of the bins and of the
	// kernel's taps), the spectrum's, and the binning's.
	nf := float64(n)
	lg := float64(bits.Len(uint(nfft)))
	k1 := 1 + math.Sqrt(2*math.Pi)/d
	k2 := math.Sqrt(1 + math.Sqrt(math.Pi)/d)
	//lint:allow floatcheck c2 is a sum of squares
	fixed := 32*lg*roundUnit*(2*math.Sqrt(c2)*k1+c1*k2) + c1*spectrumErr
	fixed += nf * roundUnit * (4*float64(g)*d + 4*(math.Abs(lo)+math.Abs(lo+float64(g-1)*step))*inv + 2*nf + 64)
	// The kernel is periodic with period nfft ≥ g + L, so each weight
	// also reaches grid points through images at least L+1 steps away,
	// one on each side; a sample's weights sum to at most 1.25 in
	// absolute value.
	uL := float64(L+1) * d
	eL := math.Exp(-0.5 * uL * uL)
	fixed += 2.6 * nf * eL
	d4 := d * d * d * d
	uniform := (d4*rsum*phi4Max0 + fixed) * (1 + 1e-9)
	peakHi := emax + uniform
	tol := (scatterDev + 16*roundUnit) * peakHi
	band := uniform + tol
	for j := range hw {
		hw[j] = band
	}
	peakLo := emax - band
	tlo, thi := rel*(peakLo-tol)*(1-4*roundUnit), rel*(peakHi+tol)*(1+4*roundUnit)
	if rel <= 0 {
		tlo, thi = math.Inf(-1), math.Inf(-1)
	}

	// 4a. The uniform bound decides almost every point.
	pending := s.pending[:0]
	for i := 1; i < g-1; i++ {
		switch isMode(est, hw, i, tlo, thi) {
		case yes:
			modes++
		case unknown:
			pending = append(pending, int32(i))
		}
	}
	s.pending = pending
	if len(pending) == 0 {
		return modes, branchCheap, true
	}

	// 4b. Local bounds: the remainder of each sample in cell j reaches
	// grid point m through max|φ⁽⁴⁾| on [(m-j-2)·d, (m-j+1)·d]; m4
	// holds that maximum for m-j ∈ [-L-1, L+2], and cells farther away
	// have |u| ≥ (L+1)·d.
	s.ek, s.m4 = grow(s.ek, L+4), grow(s.m4, 2*L+4)
	ek, m4 := s.ek, s.m4
	for i := range ek {
		u := float64(i) * d
		ek[i] = math.Exp(-0.5 * u * u)
	}
	for k := -L - 1; k <= L+2; k++ {
		m4[k+L+1] = phi4Range(float64(k-2)*d, float64(k+1)*d, ek[abs(k-2)], ek[abs(k+1)])
	}
	tail := d4 * rsum * (uL*uL*uL*uL + 6*uL*uL + 3) * eL
	s.state = grow(s.state, g)
	state := s.state
	clear(state)
	localize := func(m int) {
		if state[m] != pointUniform {
			return
		}
		var sum float64
		for j := max(m-L-2, 0); j <= min(m+L+1, g-1); j++ {
			sum += rw[j] * m4[m-j+L+1]
		}
		hw[m] = (d4*sum+tail+fixed)*(1+1e-9) + tol
		state[m] = pointLocal
	}
	open := pending[:0]
	for _, i := range pending {
		localize(int(i) - 1)
		localize(int(i))
		localize(int(i) + 1)
		switch isMode(est, hw, int(i), tlo, thi) {
		case yes:
			modes++
		case unknown:
			open = append(open, i)
		}
	}
	pending = open
	if len(pending) == 0 {
		return modes, branchCheap, true
	}

	// 4c. Direct sums at every open point and its neighbours. An open
	// threshold comparison would need the peak summed directly too;
	// the scatter decides those samples instead.
	count := 0
	for _, i := range pending {
		if est[i]-hw[i] < thi {
			return 0, 0, false
		}
		for m := int(i) - 1; m <= int(i)+1; m++ {
			if state[m] != pointDirect {
				state[m] = pointDirect
				count++
			}
		}
	}
	if count > maxDirect {
		return 0, 0, false
	}
	// Every direct value gets one half-width, at least half the direct
	// margin, so two of them decide only when they differ by
	// directMargin of the peak or more.
	var errMax float64
	dpeak := peakHi
	for m, st := range state {
		if st == pointDirect {
			var err float64
			est[m], err = directSum(xs, lo+float64(m)*step, inv)
			errMax = max(errMax, err)
			dpeak = max(dpeak, est[m])
		}
	}
	dh := max(0.5*directMargin*dpeak, errMax+tol)
	for m, st := range state {
		if st == pointDirect {
			hw[m] = dh
		}
	}
	for _, i := range pending {
		switch isMode(est, hw, int(i), tlo, thi) {
		case yes:
			modes++
		case unknown:
			return 0, 0, false
		}
	}
	return modes, branchDirect, true
}

func abs(k int) int {
	if k < 0 {
		return -k
	}
	return k
}

// phi4Range bounds |φ⁽⁴⁾(u)| = |u⁴ - 6u² + 3|·exp(-u²/2) on [a, b],
// given ea = exp(-a²/2) and eb = exp(-b²/2): the larger of its values
// at the ends and at the local maxima inside.
func phi4Range(a, b, ea, eb float64) float64 {
	p := func(u, e float64) float64 { return math.Abs(u*u*u*u-6*u*u+3) * e }
	m := max(p(a, ea), p(b, eb))
	inside := func(c float64) bool { return a <= c && c <= b || a <= -c && -c <= b }
	if inside(0) {
		m = max(m, phi4Max0)
	}
	if inside(phi4Crit1) {
		m = max(m, phi4Max1)
	}
	if inside(phi4Crit2) {
		m = max(m, phi4Max2)
	}
	return m * (1 + 1e-12)
}

// directSum returns Σ_i exp(-u_i²/2), u_i = (x - xs_i)·inv, over the
// samples within directCutoff bandwidths of x, and a bound on its
// distance from the exact sum over all of xs: the rounding of each
// term (u carries relative error 3 ulp, so a term carries 4u² + 1 ulp)
// and of the running sum, plus the terms left out.
func directSum(xs []float64, x, inv float64) (sum, bound float64) {
	var su2 float64
	skipped := 0
	for _, xi := range xs {
		u := (x - xi) * inv
		if u > directCutoff || u < -directCutoff {
			skipped++
			continue
		}
		e := math.Exp(-0.5 * u * u)
		sum += e
		su2 += e * u * u
	}
	bound = roundUnit*(float64(len(xs)+4)*sum+4*su2)*1.01 + float64(skipped)*math.Exp(-0.5*directCutoff*directCutoff)
	return sum, bound
}

// gaussSpectrum sets kh[f], f ≤ n/2, to the n-point DFT of the taps
// φ(k·d), k ∈ ℤ folded modulo n, for φ(u) = exp(-u²/2). The taps are
// even, so the transform is real. By Poisson's summation formula it is
// (√(2π)/d)·Σ_p exp(-ξ_p²/2) over ξ_p = 2π(f/n + p)/d. gaussSpectrum
// keeps p = 0 and p = -1, which cover |f/n + p| < 1, and returns a
// bound on the absolute error of each value: the dropped terms (for
// d ≤ 1) and the rounding. g0 is scratch for exp(-κf²), κ = 2π²/(n·d)²,
// f ≤ n.
func gaussSpectrum(kh, g0 []float64, n int, d float64) float64 {
	nf := float64(n)
	kappa := 2 * math.Pi * math.Pi / (nf * nf * d * d)
	// exp(-κf²) underflows to zero past fmax. Below it, it runs as a
	// product recurrence, restarted from math.Exp every 16 steps so
	// that its rounding stays below 40 ulp.
	fmax := min(n, int(math.Sqrt(750/kappa)))
	decay := math.Exp(-2 * kappa)
	for f0 := 0; f0 <= fmax; f0 += 16 {
		ff := float64(f0)
		g := math.Exp(-kappa * ff * ff)
		r := math.Exp(-kappa * (2*ff + 1))
		for f := f0; f < min(f0+16, fmax+1); f++ {
			g0[f] = g
			g *= r
			r *= decay
		}
	}
	//lint:allow floatcheck certified calls with 0 < d ≤ maxBinStep
	s := math.Sqrt(2*math.Pi) / d
	for f := range kh {
		var a, b float64
		if f <= fmax {
			a = g0[f]
		}
		if n-f <= fmax {
			b = g0[n-f]
		}
		kh[f] = s * (a + b)
	}
	big := 2 * math.Pi * math.Pi / (d * d)
	return s * (100*roundUnit + 2.1*math.Exp(-big))
}
