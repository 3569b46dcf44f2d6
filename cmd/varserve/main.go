// Command varserve runs the online prediction service: it loads (or
// collects) a measurement database and serves use-case-1/2 distribution
// predictions over HTTP, with the trained models cached so repeated
// queries cost O(predict) instead of O(train).
//
// Usage:
//
//	varserve -db campaign.gob.gz                      # serve on :8080
//	varserve -addr :9090 -workers 16 -timeout 10s     # tuned
//	varserve -warm                                    # pre-train default models
//	varserve -modeldir models/ -warm                  # warm start from the model store
//
// Endpoints: POST /v1/predict/uc1, POST /v1/predict/uc1/batch,
// POST /v1/predict/uc2, POST /v1/measurements (streaming ingest with
// drift-triggered background refits),
// GET /v1/systems, /v1/status (posture), /v1/metrics (the one metrics
// endpoint: the obs registry), /v1/traces (recent request traces),
// /healthz, /readyz, and — with -pprof — /debug/pprof/. See the
// "Serving predictions", "Streaming ingest & drift", and
// "Observability" sections of README.md for the request/response
// reference. Load generation is perfbench's job (perfbench/run.sh);
// the streaming-drift experiment is `experiments -fig ext7`.
//
// The server drains gracefully on SIGINT/SIGTERM: readiness flips to
// 503 and in-flight requests get time to finish.
package main

import (
	"context"
	"flag"
	"log"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/measure"
	"repro/internal/modelstore"
	"repro/internal/perfsim"
	"repro/internal/randx"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("varserve: ")
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		replica = flag.String("replica", "", "shard identity when serving behind varroute (surfaced in /readyz and /v1/status)")
		dbPath  = flag.String("db", "", "measurement database from varcollect (collected on the fly when empty)")
		runs    = flag.Int("runs", 400, "on-the-fly campaign size when -db is not given")
		seed    = flag.Uint64("seed", 1, "on-the-fly campaign seed")
		workers = flag.Int("workers", 0, "max concurrent predictions (0 = GOMAXPROCS)")
		procs   = flag.Int("procs", 0, "GOMAXPROCS for parallel training/prediction (0 = all cores)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		warm    = flag.Bool("warm", false, "pre-train the default full models before serving")

		modelDir = flag.String("modeldir", "", "persistent model store directory: fitted models are saved there and loaded on restart (empty = off)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes heap/stack contents; opt-in)")
	)
	flag.Parse()
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	db := loadDatabase(*dbPath, *runs, *seed)
	var registry *modelstore.Registry
	if *modelDir != "" {
		store, err := modelstore.Open(*modelDir)
		if err != nil {
			log.Fatal(err)
		}
		registry = modelstore.NewRegistry(store)
		keys, err := store.Keys()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("model store %s: %d models on disk", store.Dir(), len(keys))
	}
	srv := serve.New(db, serve.Config{
		Addr:           *addr,
		ReplicaID:      *replica,
		Workers:        *workers,
		RequestTimeout: *timeout,
		EnablePprof:    *pprofOn,
		ModelRegistry:  registry,
		Drift:          drift.Config{Seed: *seed},
	})
	if *warm {
		warmStart := randx.SystemClock()
		if err := srv.Predictor().Warm(ctx,
			[]core.UC1Config{{NumSamples: 10, Seed: 1}},
			[]core.UC2Config{{Seed: 1}},
		); err != nil {
			log.Fatal(err)
		}
		log.Printf("warmed default models in %v", randx.SystemClock.Since(warmStart).Round(time.Millisecond))
	}

	if err := srv.Listen(); err != nil {
		log.Fatal(err)
	}
	log.Printf("serving predictions on %s (%d systems, %d benchmarks each)",
		srv.Addr(), len(db.Systems), len(db.Systems[0].Benchmarks))
	if err := srv.Serve(ctx); err != nil {
		log.Fatal(err)
	}
	log.Print("drained, bye")
}

// loadDatabase loads a persisted campaign or collects a reduced one.
func loadDatabase(path string, runs int, seed uint64) *measure.Database {
	if path != "" {
		db, err := measure.Load(path)
		if err != nil {
			log.Fatal(err)
		}
		return db
	}
	log.Printf("no -db given; collecting an on-the-fly campaign (%d runs per benchmark)...", runs)
	start := randx.SystemClock()
	db, err := measure.Collect(
		[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
		perfsim.TableI(),
		measure.Config{Runs: runs, ProbeRuns: 120, Seed: seed},
	)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("collected in %v", randx.SystemClock.Since(start).Round(time.Millisecond))
	return db
}
