// Command rcast-serve runs the simulator as a long-lived HTTP daemon:
// scenario jobs arrive as JSON, pass through a bounded admission queue
// with backpressure, execute with per-job deadlines and cooperative
// cancellation, and memoize results in a content-addressed cache so an
// identical submission is answered without recomputing. See DESIGN.md
// §10 for the API and the determinism contract.
//
// With -coordinator the daemon becomes the head of a fleet: parameter
// sweeps (POST /api/v1/sweeps) are expanded into content-addressed cells
// and sharded across downstream rcast-serve workers with work-stealing
// dispatch, bounded retry on worker loss, and peer cache fills. Results
// are byte-identical to running the same cells locally or through the
// CLI tools.
//
// Examples:
//
//	rcast-serve -addr :8321
//	rcast-serve -addr :8321 -workers 4 -queue 32 -cache 512
//	rcast-serve -addr :8320 -coordinator http://sim-a:8321,http://sim-b:8321
//
//	curl -s localhost:8321/api/v1/jobs -d '{"scheme":"Rcast","reps":3}'
//	curl -s localhost:8321/api/v1/jobs/job-1
//	curl -s localhost:8321/api/v1/jobs/job-1/result
//	curl -s localhost:8320/api/v1/sweeps -d '{"schemes":["802.11","Rcast"],"pauses_sec":[0,300,-1]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rcast/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rcast-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rcast-serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8321", "listen address")
		workers      = fs.Int("workers", 2, "concurrent job executors")
		queue        = fs.Int("queue", 16, "admission queue depth (full queue answers 429)")
		simWorkers   = fs.Int("sim-workers", 1, "per-job replication fan-out (results are identical for any value)")
		cacheEntries = fs.Int("cache", 256, "result cache capacity (entries)")
		defTimeout   = fs.Duration("default-timeout", 10*time.Minute, "per-job deadline when the request sets none")
		maxTimeout   = fs.Duration("max-timeout", time.Hour, "ceiling on requested per-job deadlines")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Minute, "how long a shutdown signal waits for admitted jobs before force-canceling")
		coordinator  = fs.String("coordinator", "", "comma-separated rcast-serve worker URLs; sweeps shard across this fleet")
		fleetRetries = fs.Int("fleet-retries", 3, "per-cell retry budget after a fleet worker is lost")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		SimWorkers:     *simWorkers,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
	}
	var srv *serve.Server
	if *coordinator != "" {
		var urls []string
		for _, u := range strings.Split(*coordinator, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
		var err error
		srv, err = serve.NewCoordinator(opts, serve.FleetOptions{
			Workers:    urls,
			MaxRetries: *fleetRetries,
		})
		if err != nil {
			return err
		}
	} else {
		srv = serve.New(opts)
	}

	// Catch shutdown signals before the listener exists: a signal that
	// arrives once /healthz can answer must drain, not kill, the daemon.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	log.SetPrefix("rcast-serve: ")
	log.SetFlags(log.LstdFlags)
	mode := "standalone"
	if *coordinator != "" {
		mode = fmt.Sprintf("coordinator fleet=%s", *coordinator)
	}
	log.Printf("listening on %s (workers=%d queue=%d cache=%d %s)", ln.Addr(), *workers, *queue, *cacheEntries, mode)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case got := <-sig:
		log.Printf("received %v, draining (admitted jobs run to completion, up to %s)", got, *drainTimeout)
	}

	// Graceful drain: stop admitting first, so /healthz reports draining
	// and submissions 503 while the queue empties; then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain expired: force-canceled running jobs (%v)", err)
	} else {
		log.Printf("drained cleanly")
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
