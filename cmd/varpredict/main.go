// Command varpredict predicts the performance distribution of one
// benchmark and overlays it against the measured ground truth —
// the deployment view of both use cases.
//
// Usage:
//
//	varpredict -bench specomp/376                       # use case 1 on Intel
//	varpredict -bench parsec/canneal -usecase 2         # AMD → Intel
//	varpredict -bench npb/bt -rep histogram -model rf   # other designs
//	varpredict -bench npb/bt -model rf -modeldir models/  # persist / reuse the fit
//
// A measurement database can be reused with -db (see varcollect);
// otherwise a reduced campaign is collected on the fly. With -trace the
// prediction runs through the cached predictor under an obs trace and
// the span tree (dataset build, model fit, decode) is printed after the
// overlay — the "where did the time go" view. With -modeldir the fitted
// model is saved to (or loaded back from) a persistent model store, so
// a second run with the same database and settings skips training.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"

	"repro/internal/core"
	"repro/internal/distrep"
	"repro/internal/measure"
	"repro/internal/modelstore"
	"repro/internal/obs"
	"repro/internal/perfsim"
	"repro/internal/stats"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("varpredict: ")
	var (
		dbPath  = flag.String("db", "", "measurement database from varcollect (collected on the fly when empty)")
		bench   = flag.String("bench", "specomp/376", "benchmark to predict (suite/name)")
		usecase = flag.Int("usecase", 1, "1 = few runs on the same system; 2 = cross-system")
		samples = flag.Int("samples", 10, "profile runs for use case 1")
		repName = flag.String("rep", "pearsonrnd", "distribution representation (pearsonrnd | histogram | pymaxent | quantile)")
		mdlName = flag.String("model", "knn", "prediction model (knn | rf | xgboost | ridge)")
		src     = flag.String("src", "amd", "use case 2 source system")
		dst     = flag.String("dst", "intel", "use case 2 target system")
		runs    = flag.Int("runs", 400, "on-the-fly campaign size when -db is not given")
		seed    = flag.Uint64("seed", 1, "seed")
		procs   = flag.Int("procs", 0, "GOMAXPROCS for parallel training/prediction (0 = all cores)")
		trace   = flag.Bool("trace", false, "print the obs span tree of the prediction (timings per phase)")
		mdlDir  = flag.String("modeldir", "", "persistent model store directory: save the fitted model there, or load it back on a later run (empty = off)")
	)
	flag.Parse()
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	rep, err := distrep.ParseKind(*repName)
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.ParseModel(*mdlName)
	if err != nil {
		log.Fatal(err)
	}

	var db *measure.Database
	if *dbPath != "" {
		db, err = measure.Load(*dbPath)
	} else {
		fmt.Printf("collecting an on-the-fly campaign (%d runs per benchmark)...\n", *runs)
		db, err = measure.Collect(
			[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
			perfsim.TableI(),
			measure.Config{Runs: *runs, ProbeRuns: 120, Seed: *seed},
		)
	}
	if err != nil {
		log.Fatal(err)
	}

	// With -trace the request runs through the cached predictor (the
	// serving path), whose spans land on a local tracer; the results are
	// bit-identical to the batch path for the same seed. -modeldir also
	// routes through the predictor, with a persistent model store
	// attached: the first run fits and saves the model, later runs load
	// it from disk instead of retraining.
	ctx := context.Background()
	var tracer *obs.Tracer
	var rootSpan *obs.Span
	if *trace {
		tracer = obs.NewTracer(obs.Config{BufferSize: 1})
		ctx, rootSpan = tracer.Start(ctx, fmt.Sprintf("varpredict uc%d %s", *usecase, *bench))
	}
	usePredictor := *trace || *mdlDir != ""
	var registry *modelstore.Registry
	newPredictor := func() *core.Predictor {
		p := core.NewPredictor(db)
		if *mdlDir != "" {
			store, err := modelstore.Open(*mdlDir)
			if err != nil {
				log.Fatal(err)
			}
			registry = modelstore.NewRegistry(store)
			p.SetModelStore(registry)
		}
		return p
	}

	var predicted, actual []float64
	var title string
	switch *usecase {
	case 1:
		title = fmt.Sprintf("%s on intel, predicted from %d runs (%s + %s)", *bench, *samples, rep, model)
		cfg := core.UC1Config{Rep: rep, Model: model, NumSamples: *samples, Seed: *seed}
		if usePredictor {
			var p *core.Prediction
			p, err = newPredictor().PredictUC1(ctx, "intel", *bench, cfg)
			if err == nil {
				predicted, actual = p.Predicted, p.Actual
			}
			break
		}
		intel, ok := db.System("intel")
		if !ok {
			log.Fatal("database lacks the intel system")
		}
		predicted, actual, err = core.PredictUC1(intel, *bench, cfg)
	case 2:
		title = fmt.Sprintf("%s: %s → %s (%s + %s)", *bench, *src, *dst, rep, model)
		cfg := core.UC2Config{Rep: rep, Model: model, Seed: *seed}
		if usePredictor {
			var p *core.Prediction
			p, err = newPredictor().PredictUC2(ctx, *src, *dst, *bench, cfg)
			if err == nil {
				predicted, actual = p.Predicted, p.Actual
			}
			break
		}
		srcSys, ok := db.System(*src)
		if !ok {
			log.Fatalf("database lacks system %q", *src)
		}
		dstSys, ok := db.System(*dst)
		if !ok {
			log.Fatalf("database lacks system %q", *dst)
		}
		predicted, actual, err = core.PredictUC2(srcSys, dstSys, *bench, cfg)
	default:
		log.Fatalf("unknown use case %d", *usecase)
	}
	if err != nil {
		log.Fatal(err)
	}
	if rootSpan != nil {
		rootSpan.End()
	}
	if registry != nil {
		ss := registry.Stats()
		switch {
		case ss.DiskHits > 0:
			fmt.Printf("model store %s: loaded the trained model from disk (no refit)\n", registry.Store().Dir())
		case ss.Misses > 0:
			fmt.Printf("model store %s: fitted and saved the trained model\n", registry.Store().Dir())
		default:
			// Ridge and the kNN fallback are never persisted.
			fmt.Printf("model store %s: model kind is not persisted\n", registry.Store().Dir())
		}
	}

	fmt.Println(viz.OverlayPlot(actual, predicted, 72, 12, title))
	pm := stats.ComputeMoments4(predicted)
	am := stats.ComputeMoments4(actual)
	fmt.Println(viz.Table([][]string{
		{"", "KS", "W1", "mean", "std", "skew", "kurt", "modes"},
		{"actual", "", "",
			fmt.Sprintf("%.4f", am.Mean), fmt.Sprintf("%.4f", am.Std),
			fmt.Sprintf("%.2f", am.Skew), fmt.Sprintf("%.2f", am.Kurt),
			fmt.Sprint(stats.NewKDE(actual).CountModes(512, 0.1))},
		{"predicted",
			fmt.Sprintf("%.3f", stats.KSStatistic(predicted, actual)),
			fmt.Sprintf("%.4f", stats.Wasserstein1(predicted, actual)),
			fmt.Sprintf("%.4f", pm.Mean), fmt.Sprintf("%.4f", pm.Std),
			fmt.Sprintf("%.2f", pm.Skew), fmt.Sprintf("%.2f", pm.Kurt),
			fmt.Sprint(stats.NewKDE(predicted).CountModes(512, 0.1))},
	}))
	if tracer != nil {
		for _, root := range tracer.Traces() {
			fmt.Println()
			fmt.Println("trace:")
			fmt.Println(root.Render())
		}
	}
}
