// Command benchcheck is the benchmark regression guard: it runs the
// tier-1 hot-path benchmarks (batch prediction, the KS/W1 scoring
// kernels, the KDE mode count, the served response summary and the
// tree learners' 50-output UC1 fits),
// compares the best-of-N ns/op
// against the committed BENCH_baseline.json, and exits nonzero when
// any guarded benchmark slowed down beyond the threshold.
//
// Usage:
//
//	go run ./cmd/benchcheck                  # compare against the baseline
//	go run ./cmd/benchcheck -update          # re-measure and rewrite it
//	go run ./cmd/benchcheck -max-regress 0.5 # looser bar (noisy CI boxes)
//
// CI runs this as a blocking gate. Absolute ns/op moves with the host,
// so the CI invocation passes a loose -max-regress: the gate exists to
// catch large accidents — a lost fast path, an accidental O(n^2), the
// SIMD kernel silently disabled — not single-digit drift. Re-measure
// with -update on the reference box when a deliberate change shifts
// the hot path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// targets lists the guarded benchmarks. Keep this in sync with the
// `make benchcheck` paragraph of README.md.
var targets = []struct {
	pkg   string // package path passed to go test
	bench string // -bench regexp
}{
	{"./internal/ml", "^(BenchmarkPredictBatch|BenchmarkPredictBatchForest|BenchmarkPredictBatchXGB|BenchmarkPredictBatchTraced|BenchmarkKNNFitPredict|BenchmarkXGBFitUC1|BenchmarkForestFitUC1)$"},
	{"./internal/stats", "^(BenchmarkKSStatistic1000|BenchmarkWasserstein1|BenchmarkKDECountModes)$"},
	{"./internal/serve", "^BenchmarkBuildResponse$"},
}

// Baseline is the committed measurement set.
type Baseline struct {
	Note    string             `json:"note,omitempty"`
	NsPerOp map[string]float64 `json:"ns_per_op"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcheck: ")
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline file")
		update       = flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
		maxRegress   = flag.Float64("max-regress", 0.20, "fail when ns/op exceeds baseline by more than this fraction")
		benchtime    = flag.String("benchtime", "0.3s", "per-benchmark -benchtime")
		count        = flag.Int("count", 5, "-count repetitions (best of N is compared)")
	)
	flag.Parse()

	current, err := measure(*benchtime, *count)
	if err != nil {
		log.Fatal(err)
	}
	if len(current) == 0 {
		log.Fatal("no benchmark results parsed")
	}

	if *update {
		b := Baseline{
			Note:    "best-of-N ns/op from `go run ./cmd/benchcheck -update`; host-dependent, refresh when hardware changes",
			NsPerOp: current,
		}
		blob, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d benchmarks)", *baselinePath, len(current))
		return
	}

	blob, err := os.ReadFile(*baselinePath)
	if err != nil {
		log.Fatalf("read baseline (create with -update): %v", err)
	}
	var base Baseline
	if err := json.Unmarshal(blob, &base); err != nil {
		log.Fatalf("parse %s: %v", *baselinePath, err)
	}

	failed := false
	for _, name := range sortedKeys(current) {
		cur := current[name]
		want, ok := base.NsPerOp[name]
		if !ok {
			fmt.Printf("NEW   %-32s %12.0f ns/op (not in baseline; run -update)\n", name, cur)
			continue
		}
		if want <= 0 {
			fmt.Printf("SKIP  %-32s baseline is %v\n", name, want)
			continue
		}
		ratio := cur / want
		switch {
		case ratio > 1+*maxRegress:
			fmt.Printf("FAIL  %-32s %12.0f ns/op vs baseline %.0f (%+.1f%%, limit %+.0f%%)\n",
				name, cur, want, (ratio-1)*100, *maxRegress*100)
			failed = true
		default:
			fmt.Printf("ok    %-32s %12.0f ns/op vs baseline %.0f (%+.1f%%)\n",
				name, cur, want, (ratio-1)*100)
		}
	}
	for _, name := range sortedKeys(base.NsPerOp) {
		if _, ok := current[name]; !ok {
			fmt.Printf("GONE  %-32s in baseline but not measured (renamed? run -update)\n", name)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// measure runs every guarded benchmark and returns the best-of-count
// ns/op per benchmark name (suffix-stripped). Best-of is the standard
// noise reducer: scheduling delays only ever make a run slower.
func measure(benchtime string, count int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, tgt := range targets {
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", tgt.bench, "-benchtime", benchtime,
			"-count", strconv.Itoa(count), tgt.pkg)
		raw, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w\n%s", tgt.pkg, err, raw)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			name, ns, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			if prev, seen := out[name]; !seen || ns < prev {
				out[name] = ns
			}
		}
	}
	return out, nil
}

// parseBenchLine extracts (name, ns/op) from one testing benchmark
// output line, e.g. "BenchmarkPredictBatch-8   218   1062789 ns/op".
func parseBenchLine(line string) (string, float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
		return "", 0, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i] // strip the -GOMAXPROCS suffix
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || ns <= 0 {
		return "", 0, false
	}
	return name, ns, true
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
