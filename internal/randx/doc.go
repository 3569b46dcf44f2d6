// Package randx provides the deterministic random-number machinery used
// across the repository: a seedable source plus samplers for the
// distribution families needed by the Pearson system (normal, gamma,
// beta, beta-prime, inverse-gamma, Student-t) and by the performance
// simulator (lognormal, categorical choice).
//
// All randomness in this project flows through *randx.RNG so that every
// experiment is reproducible bit-for-bit from its seed; parallel
// workers derive independent child streams with Split/SplitN before
// dispatch rather than sharing one source.
//
// The package also owns the repository's clock (SystemClock and the
// test clocks in clock.go): the nondeterminism analyzer forbids direct
// time.Now/Since/Until elsewhere in internal packages, so wall-clock
// reads are as auditable as random draws.
package randx
