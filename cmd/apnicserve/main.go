// Command apnicserve serves the full dataset roster over HTTP: the APNIC
// per-AS report plus the six companion simulators (cdn, itu, mlab,
// dnscount, broadband, ixp), each under /v1/{dataset}/.... The legacy
// APNIC routes (/v1/dates, /v1/reports/{date}.csv, /v1/series/AS<asn>)
// stay byte-identical, the way the real dataset is published on
// stats.labs.apnic.net.
//
// Usage:
//
//	apnicserve -addr :8080 -seed 42 -from 2023-01-01 -to 2024-12-31 [-cache-days 365] [-log] [-dump-metrics]
//
// Then:
//
//	curl http://localhost:8080/v1/dates
//	curl http://localhost:8080/v1/reports/2024-04-21.csv | head
//	curl http://localhost:8080/v1/itu/dates
//	curl http://localhost:8080/v1/cdn/reports/2024-04-21.csv | head
//	curl http://localhost:8080/metrics                    # Prometheus text
//	curl 'http://localhost:8080/metrics?format=json'      # expvar-style JSON
//
// -log emits one structured line per request to stderr; -dump-metrics
// prints the full metrics registry as JSON on shutdown (SIGINT/SIGTERM),
// so even a non-scraped run leaves an operational record.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/apnicweb"
	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/world"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Uint64("seed", 42, "world seed")
	from := flag.String("from", "2013-11-01", "first served date")
	to := flag.String("to", "2024-12-31", "last served date")
	logReqs := flag.Bool("log", false, "log every request (structured, to stderr)")
	dumpMetrics := flag.Bool("dump-metrics", false, "print the metrics registry as JSON on shutdown")
	cacheDays := flag.Int("cache-days", source.DefaultCacheDays,
		"max days held in each dataset's in-memory artifact cache; LRU eviction beyond this")
	flag.Parse()

	first, last, err := parseRange(*from, *to)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apnicserve:", err)
		os.Exit(2)
	}

	log.Printf("building world (seed %d)...", *seed)
	srv := buildServer(*seed, first, last, *cacheDays)
	if *logReqs {
		srv.Log = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving %s..%s on %s (metrics on /metrics)", first, last, *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Printf("shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("shutdown: %v", err)
		}
	}

	if *dumpMetrics {
		if err := srv.Metrics().WriteJSON(os.Stderr); err != nil {
			log.Printf("dumping metrics: %v", err)
		}
	}
}

// parseRange parses the -from and -to flags into the served range,
// rejecting one that no dataset can serve: inverted (every report would
// 404 and every series request 400) or outside the simulated span.
func parseRange(from, to string) (first, last dates.Date, err error) {
	if first, err = dates.Parse(from); err != nil {
		return first, last, fmt.Errorf("-from: %w", err)
	}
	if last, err = dates.Parse(to); err != nil {
		return first, last, fmt.Errorf("-to: %w", err)
	}
	if err = source.CheckRange(first, last); err != nil {
		return first, last, fmt.Errorf("-from/-to: %w", err)
	}
	return first, last, nil
}

// Connection limits. Every response is rendered from memory, so the
// write timeout only cuts off a client that stopped reading; the idle
// timeout closes keep-alive connections nobody reuses, which would
// otherwise stay open for the life of the process.
const (
	readHeaderTimeout = 10 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 16 << 10
)

// newHTTPServer wraps h in the listener configuration main serves with.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// buildServer assembles the seven-dataset server; split out of main so
// the integration test can exercise the exact handler main serves.
func buildServer(seed uint64, first, last dates.Date, cacheDays int) *apnicweb.Server {
	w := world.MustBuild(world.Config{Seed: seed})
	return apnicweb.NewMultiServer(w, seed, first, last, cacheDays)
}
