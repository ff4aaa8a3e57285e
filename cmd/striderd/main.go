// Command striderd runs the strider execution service: a long-running
// HTTP/JSON server that accepts experiment-cell jobs, runs them on one
// worker per core fed by a bounded shared run queue, and serves results
// from a singleflight cache backed by a pool of recycled VMs.
//
// Usage:
//
//	striderd -addr 127.0.0.1:8120
//	striderd -addr 127.0.0.1:0 -shards 8 -queue 128 -cache 4096 -pool 512
//
// Endpoints:
//
//	POST /run      submit one job; ?nocache=1 bypasses the result cache,
//	               ?explain=1 returns the per-loop decision log
//	GET  /stats    run-queue depth, worker utilization, cache and pool counters
//	GET  /healthz  200 while serving, 503 + Retry-After while draining
//
// A full run queue is explicit backpressure: 429 with a Retry-After hint.
// SIGINT/SIGTERM starts a graceful drain — new jobs are refused with 503
// while everything already accepted runs to completion, then the process
// exits 0.
//
// Exit status: 0 after a clean drain, 1 if the listener fails, 2 on a
// usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"strider/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the whole daemon; main binds it to the process. ready, when
// non-nil, receives the bound address once the listener is serving —
// tests and the CI smoke script use -addr 127.0.0.1:0 and read it from
// stdout.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("striderd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8120", "listen address (host:port; port 0 picks a free port)")
	shards := fs.Int("shards", 0, "workers draining the run queue (0 = one per core)")
	queue := fs.Int("queue", 0, "run-queue admission depth per worker (0 = default 64)")
	cache := fs.Int("cache", 0, "cached results per shard (0 = default 1024, negative disables)")
	pool := fs.Int("pool", 0, "max cells with a parked VM (0 = default 256, negative disables)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "bound on the shutdown drain")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "striderd: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	srv := server.New(server.Config{
		Shards:       *shards,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		PoolKeys:     *pool,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "striderd: listen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "striderd listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "striderd: %v — draining\n", s)
	case err := <-serveErr:
		fmt.Fprintf(stderr, "striderd: serve: %v\n", err)
		return 1
	}

	// Graceful drain: refuse new jobs (503), finish everything accepted,
	// then stop the HTTP listener.
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(*drainTimeout):
		fmt.Fprintf(stderr, "striderd: drain timed out after %s\n", *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	st := srv.StatsSnapshot()
	fmt.Fprintf(stdout, "striderd: drained — %d accepted, %d completed, %d cache hits\n",
		st.Accepted, st.Completed, st.Cache.Hits)
	return 0
}
