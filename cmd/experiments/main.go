// Command experiments regenerates the paper's results figures
// (Figures 1 and 3–9) from a measurement campaign and prints each as a
// terminal figure plus its data series and a paper-vs-measured summary.
// With -ext it also runs the extension experiments, including the ext6
// fault-tolerance sweep (UC1 accuracy vs injected fault rate under
// ingest quarantine, with and without counter repair) and the ext7
// streaming-drift experiment (detection latency and residual KS after
// background refits, against a no-refit control).
//
// Usage:
//
//	experiments                         # full campaign, all figures
//	experiments -fig 4,6                # only Figures 4 and 6
//	experiments -fig ext7               # only the streaming-drift experiment
//	experiments -db campaign.gob.gz     # reuse a saved campaign
//	experiments -runs 300 -fast         # reduced scale for quick runs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/measure"
	"repro/internal/perfsim"
	"repro/internal/randx"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		dbPath = flag.String("db", "", "measurement database from varcollect (collected on the fly when empty)")
		figSel = flag.String("fig", "all", "comma-separated figure numbers or extension ids (e.g. \"1,4,ext6\") or \"all\"")
		ext    = flag.Bool("ext", false, "also run the extension experiments (ext1-ext7)")
		runs   = flag.Int("runs", 1000, "campaign runs per benchmark when collecting on the fly")
		probes = flag.Int("probes", 120, "campaign probe runs per benchmark")
		seed   = flag.Uint64("seed", 1, "seed for campaign and models")
		fast   = flag.Bool("fast", false, "shrink ensembles and the sample sweep for quick runs")
		outDir = flag.String("out", "", "also write each figure's text to <out>/<fig>.txt")
		procs  = flag.Int("procs", 0, "GOMAXPROCS for parallel training/prediction (0 = all cores)")
	)
	flag.Parse()
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	var db *measure.Database
	var err error
	if *dbPath != "" {
		fmt.Printf("loading campaign from %s...\n", *dbPath)
		db, err = measure.Load(*dbPath)
	} else {
		fmt.Printf("collecting campaign: %d runs + %d probes x 60 benchmarks x 2 systems...\n", *runs, *probes)
		start := randx.SystemClock()
		db, err = measure.Collect(
			[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
			perfsim.TableI(),
			measure.Config{Runs: *runs, ProbeRuns: *probes, Seed: *seed},
		)
		if err == nil {
			fmt.Printf("campaign collected in %v\n", randx.SystemClock.Since(start).Round(time.Millisecond))
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	opts := report.Options{Seed: *seed}
	if *fast {
		opts.ForestTrees = 15
		opts.XGBRounds = 8
		opts.Bins = 20
		opts.SweepSamples = []int{1, 3, 10, 50}
	}

	ids := report.FigureIDs()
	figs := report.Figures()
	for k, v := range report.Extensions() {
		figs[k] = v
	}
	// ext7 drives the serving stack, which internal/report, the
	// offline evaluation, does not import.
	figs["ext7"] = ext7Drift
	extIDs := append(report.ExtensionIDs(), "ext7")
	ids = append(ids, extIDs...)

	wanted := map[string]bool{}
	if *figSel == "all" {
		for _, id := range report.FigureIDs() {
			wanted[id] = true
		}
		if *ext {
			for _, id := range extIDs {
				wanted[id] = true
			}
		}
	} else {
		for _, tok := range strings.Split(*figSel, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			id := tok
			if !strings.HasPrefix(tok, "ext") {
				id = "fig" + strings.TrimPrefix(tok, "fig")
			}
			if _, ok := figs[id]; !ok {
				log.Fatalf("unknown figure %q (have 1, 3, 4, 5, 6, 7, 8, 9, ext1-ext7)", tok)
			}
			wanted[id] = true
		}
	}
	for _, id := range ids {
		if !wanted[id] {
			continue
		}
		start := randx.SystemClock()
		result, err := figs[id](db, opts)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		text := report.Render(result)
		fmt.Println(text)
		fmt.Printf("(%s regenerated in %v)\n\n", id, randx.SystemClock.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				log.Fatal(err)
			}
			path := *outDir + "/" + id + ".txt"
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
}
