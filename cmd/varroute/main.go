// Command varroute is the cluster frontend: it shards dataset cells
// across N varserve replicas by consistent hashing on the stable
// dataset key (cache affinity: a cell's owner keeps its trained models
// warm), tracks replica health from their /readyz and /v1/status
// endpoints, and fails requests over along the ring when a replica
// degrades or dies.
//
// Usage:
//
//	varroute -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//	varroute -addr :8080 -replicas ... -probe 300ms -timeout 10s
//
// Replica ring identities default to "replica-<index>" in flag order;
// start each varserve with the matching -replica flag so its status
// payloads confirm its shard. The frontend exposes the same /v1
// surface as a single varserve (predictions, batch, measurements,
// systems) plus GET /v1/cluster/status for the router's own posture
// and GET /v1/metrics for its metrics registry, so existing clients —
// perfbench's cluster_mixed workload included — point at it unchanged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("varroute: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		probe    = flag.Duration("probe", cluster.DefaultProbeInterval, "replica health-probe interval")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-replica request timeout")
		drain    = flag.Duration("drain", 5*time.Second, "graceful shutdown drain budget")
	)
	flag.Parse()

	urls := splitList(*replicas)
	if len(urls) == 0 {
		log.Fatal("at least one -replicas URL is required")
	}

	metrics := obs.NewRegistry()
	cfg := cluster.Config{
		ProbeInterval: *probe,
		Metrics:       metrics,
		Tracer:        obs.NewTracer(obs.Config{}),
	}
	for i, u := range urls {
		id := fmt.Sprintf("replica-%d", i)
		cfg.Backends = append(cfg.Backends, cluster.NewHTTPBackend(id, strings.TrimRight(u, "/"), nil, *timeout))
		log.Printf("%s -> %s", id, u)
	}
	router, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// First probe pass before accepting traffic, then the background
	// cadence for the life of the process.
	router.ProbeAll(ctx)
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		router.Run(ctx)
	}()

	frontend := cluster.NewFrontend(router, metrics)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: frontend}
	serveDone := make(chan error, 1)
	go func() { serveDone <- serveHTTP(srv, ln) }()
	log.Printf("routing %d replicas on %s", len(urls), ln.Addr())

	<-ctx.Done()
	// The drain deadline must outlive the canceled run ctx, so shutdown
	// is rooted at Background.
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
	probeWG.Wait()
	log.Print("drained, bye")
}

// serveHTTP runs the server and normalizes the clean-shutdown error.
func serveHTTP(srv *http.Server, ln net.Listener) error {
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// splitList parses the comma-separated replica URL list, dropping
// empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
