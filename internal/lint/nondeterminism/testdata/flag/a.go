// Positive and negative cases for the nondeterminism analyzer in an
// ordinary (non-exempt) package.
package a

import (
	"math/rand/v2"
	"sort"
	"time"
)

func clocks() time.Duration {
	t0 := time.Now()      // want "ambient clock time.Now"
	_ = time.Since(t0)    // want "ambient clock time.Since"
	return time.Until(t0) // want "ambient clock time.Until"
}

func sleepy() {
	time.Sleep(time.Second) // want "ambient time.Sleep"
}

func globalRand() int {
	return rand.IntN(10) // want "global math/rand source rand.IntN"
}

func localRand(seed uint64) float64 {
	r := rand.New(rand.NewPCG(seed, 1)) // seeded local source: legal
	return r.Float64()
}

func mapOrder(m map[string]float64) ([]string, float64) {
	var keys []string
	var sum float64
	for k, v := range m {
		keys = append(keys, k) // want "append to keys inside a map-range loop"
		sum += v               // want "float accumulation"
	}
	return keys, sum
}

func sortedAfter(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys) // sorting right after erases the iteration order
	return keys
}

func intAccumulate(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // integer addition is exact in any order
	}
	return n
}

func keyedWrite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] += v // keyed by the range key: order-free
	}
	return out
}
