// Command perfbench is the repository's end-to-end serving benchmark.
//
// A timed run (-trace 0) starts the real varserve (and, for
// cluster_mixed, two varserve replicas behind varroute) on loopback,
// drives one of three workloads against it from nproc closed-loop
// clients for -seconds, sets a second copy of the tier up between the
// segments of that timed phase, checks a seeded subset of the answers
// bit for bit against an in-process recomputation, and prints the
// end-to-end metrics. A traced run
// (-trace 1) replays the same seeded request stream in-process and
// times each layer through its public functions (see trace.go).
//
// Run it through run.sh, which builds everything from source:
//
//	bash perfbench/run.sh --workload uc1_bench --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report and the host record.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/measure"
	"repro/internal/perfsim"
)

// The measurement campaign every server collects: the paper's scale.
const (
	campaignRuns      = 1000
	campaignProbeRuns = 120 // varserve's on-the-fly probe budget
	campaignSeed      = 1
)

// setupRepeats is how many times a timed run sets its tier up, per
// workload; setup_s is the median. The first set-up starts the tier the
// load runs against. The timed phase is cut into as many equal
// segments, and between two segments a second copy of the tier is set
// up, timed and stopped again while the first one idles, so the
// set-ups spread over the whole run instead of bunching at its start.
// uc1_profile's set-up fits its forest and boosting models, which costs
// seconds, so it repeats fewer times.
var setupRepeats = map[string]int{wlBench: 5, wlProfile: 3, wlCluster: 4}

// gatedMetrics are the end-to-end metrics of the result line (and of
// BENCHMARK.json): the ones whose run-to-run spread on a small shared
// host stays well inside their bounds. p50_ms, rps, cpu_ms_per_req and
// fail_ratio are printed with them but move with the host's CPU speed
// by more than any usable bound (see LAYERS.md).
var gatedMetrics = []string{"setup_s", "p90_ms", "peak_rss_mb"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	binDir   string
	outDir   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, " | "))
	flag.Uint64Var(&o.seed, "seed", 1, "request-stream seed")
	flag.IntVar(&o.seconds, "seconds", 12, "timed-phase length (traced run: replay budget)")
	flag.IntVar(&trace, "trace", 0, "1 = traced in-process run reporting per-layer metrics")
	flag.StringVar(&o.binDir, "bin", ".bench_build/bin", "directory holding the varserve and varroute binaries")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for the span dump")
	flag.Parse()
	o.trace = trace == 1
	if !contains(workloads, o.workload) || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %s, -seconds >= 1, -trace 0|1\n", strings.Join(workloads, "|"))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(ctx, o)
	} else {
		res, err = runTimedWorkload(ctx, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// collect builds the campaign database in-process, exactly as varserve
// does without -db.
func collect() (*measure.Database, error) {
	return measure.Collect(
		[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
		perfsim.TableI(),
		measure.Config{Runs: campaignRuns, ProbeRuns: campaignProbeRuns, Seed: campaignSeed},
	)
}

// host is the record printed with every result.
type host struct {
	CPU        string         `json:"cpu"`
	AVX512F    bool           `json:"avx512f"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Kernel     string         `json:"kernel"`
	Campaign   map[string]any `json:"campaign"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Trace      bool           `json:"trace"`
}

func hostRecord(o options, procs map[string]int) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs,
		Go:         runtime.Version(),
		Campaign:   map[string]any{"runs": campaignRuns, "probe_runs": campaignProbeRuns, "seed": campaignSeed},
		Workload:   o.workload,
		Seed:       o.seed,
		Trace:      o.trace,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			switch k = strings.TrimSpace(k); {
			case !ok:
			case k == "model name" && h.CPU == "":
				h.CPU = strings.TrimSpace(v)
			case k == "flags":
				h.AVX512F = contains(strings.Fields(v), "avx512f")
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

func printHost(h host) {
	b, _ := json.Marshal(h)
	fmt.Printf("host %s\n", b)
}

// clientCount is the closed-loop client count: one per CPU.
func clientCount() int { return runtime.NumCPU() }

// runTimedWorkload is the untraced run: real servers, closed-loop load,
// end-to-end metrics, output check.
func runTimedWorkload(ctx context.Context, o options) (*result, error) {
	nproc := clientCount()
	runtime.GOMAXPROCS(nproc)
	db, err := collect()
	if err != nil {
		return nil, fmt.Errorf("collect campaign in-process: %w", err)
	}
	streams, err := buildStreams(o.workload, db, o.seed, nproc, perClient(o.workload, o.seconds))
	if err != nil {
		return nil, err
	}
	keep := pickChecked(o.workload, o.seed, streams)
	warm := warmups(o.workload, db)

	n := setupRepeats[o.workload]
	var setups []float64
	// setUp starts a tier under ps and warms every model key over fresh
	// clients, and records how long that took.
	setUp := func(ps *procSet, k int) (*tier, []*client, error) {
		t0 := time.Now()
		t, err := ps.startTier(ctx, o.workload, o.binDir, nproc)
		if err != nil {
			return nil, nil, fmt.Errorf("setup %d/%d: %w", k, n, err)
		}
		clients := make([]*client, nproc)
		for i := range clients {
			clients[i] = newClient()
		}
		if err := warmUp(ctx, t.url, clients, warm); err != nil {
			closeAll(clients)
			if dead := t.alive(); dead != nil {
				err = dead
			}
			return nil, nil, fmt.Errorf("setup %d/%d: %w", k, n, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return t, clients, nil
	}

	var ps procSet
	defer ps.stopAll()
	t, clients, err := setUp(&ps, 1)
	if err != nil {
		return nil, err
	}
	defer closeAll(clients)
	seg := time.Duration(o.seconds) * time.Second / time.Duration(n)
	tm := newTimed(nproc)
	for k := 1; k <= n; k++ {
		if err := tm.segment(ctx, t, clients, streams, seg, keep); err != nil {
			return nil, fmt.Errorf("timed segment %d/%d: %w", k, n, err)
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("timed segment %d/%d: interrupted", k, n)
		}
		if err := t.alive(); err != nil {
			return nil, fmt.Errorf("timed segment %d/%d: %w", k, n, err)
		}
		if k == n {
			break
		}
		var spare procSet
		_, spareClients, err := setUp(&spare, k+1)
		closeAll(spareClients)
		spare.stopAll()
		if err != nil {
			return nil, err
		}
	}
	rss, err := t.peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	var problems []string
	var clusterLine string
	if o.workload == wlCluster {
		var p []string
		if clusterLine, p, err = clusterReport(ctx, t, db); err != nil {
			return nil, fmt.Errorf("drift check: %w", err)
		}
		problems = append(problems, p...)
	}
	ps.stopAll()

	ch := newChecker(db, streams)
	checked, mismatches := checkAll(ctx, ch, streams, tm.kept, nproc)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("output check: interrupted")
	}
	problems = append(problems, mismatches...)
	if checked == 0 {
		problems = append(problems, "no response was kept for the output check")
	}
	for _, f := range tm.failures {
		problems = append(problems, f.String())
	}

	lat := tm.latMS
	ok := len(lat)
	if ok == 0 {
		return nil, fmt.Errorf("timed phase: no request completed (%d attempted)", tm.attempted)
	}
	sort.Float64s(lat)
	all := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"p50_ms":         {percentile(lat, 0.50), "ms"},
		"p90_ms":         {percentile(lat, 0.90), "ms"},
		"rps":            {float64(ok) / tm.elapsed.Seconds(), "1/s"},
		"cpu_ms_per_req": {tm.cpuS * 1000 / float64(ok), "ms"},
		"peak_rss_mb":    {rss, "MB"},
	}
	res := &result{
		Correct:   len(problems) == 0,
		Attempted: tm.attempted,
		Failed:    len(tm.failures),
		Metrics:   map[string]metric{},
	}
	for _, name := range gatedMetrics {
		res.Metrics[name] = all[name]
	}
	failRatio := float64(len(tm.failures)) / float64(tm.attempted)
	fmt.Printf("workload %s  seed %d  clients %d  timed %d x %v  setups %s s\n",
		o.workload, o.seed, nproc, n, seg, fmtList(setups))
	for _, name := range []string{"setup_s", "p50_ms", "p90_ms", "rps", "cpu_ms_per_req", "peak_rss_mb"} {
		m := all[name]
		fmt.Printf("  %-15s %12.4f %s", name, m.Value, m.Unit)
		if name == "p90_ms" {
			fmt.Printf("  (each segment's own: %s)", fmtList(tm.segP90))
		}
		fmt.Println()
	}
	fmt.Printf("  %-15s %12.4f ratio  (%d failed of %d attempted)\n", "fail_ratio", failRatio, len(tm.failures), tm.attempted)
	if clusterLine != "" {
		fmt.Println(clusterLine)
	}
	fmt.Printf("  p50_ms and p90_ms over all %d latency samples of %.1f s; the hypervisor stole %.1f %% of the CPU time meanwhile\n",
		ok, tm.elapsed.Seconds(), 100*float64(tm.steal)/float64(max(tm.ticks, 1)))
	fmt.Printf("  output check: %d responses recomputed in-process, %d problems\n", checked, len(problems))
	for _, p := range problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	printHost(hostRecord(o, map[string]int{"perfbench": runtime.GOMAXPROCS(0), "varserve": nproc, "varroute": nproc}))
	return res, nil
}

// perClient sizes the pre-generated streams to outlast the timed phase
// at well above the rates this service reaches on a small host.
func perClient(workload string, seconds int) int {
	if workload == wlProfile {
		return 100 * seconds
	}
	return 200 * seconds
}

func closeAll(clients []*client) {
	for _, c := range clients {
		c.close()
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
