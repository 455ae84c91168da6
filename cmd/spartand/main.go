// Command spartand serves SPARTAN compression, decompression and bounded
// approximate querying over HTTP.
//
//	spartand -addr :8080 -log-format json -debug-addr localhost:6060
//
//	curl -X POST --data-binary @table.csv -H 'Content-Type: text/csv' \
//	    'localhost:8080/compress?tolerance=0.01' > table.sptn
//	curl -X POST --data-binary @table.sptn \
//	    'localhost:8080/query?agg=avg&col=charge&groupby=plan'
//	curl 'localhost:8080/metrics'
//
// The server logs one structured line per request (text or JSON by
// -log-format), exposes Prometheus metrics on /metrics, and optionally
// runs a separate debug listener with net/http/pprof profiles and a
// /metrics mirror. SIGINT/SIGTERM trigger a graceful shutdown that
// drains in-flight compressions for up to -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	debugAddr := flag.String("debug-addr", "", "optional debug listen address serving net/http/pprof and /metrics (e.g. localhost:6060)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain for in-flight requests")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrent compress/query pipelines; excess requests get 429 (0 = unlimited)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request pipeline deadline; overruns are cancelled and answered 503 (0 = none)")
	segmentRows := flag.Int("segment-rows", 0, "default rows per archive segment for /compress; 0 writes one segment (requests can override with ?segment-rows=)")
	flag.Parse()

	log, err := newLogger(*logFormat)
	if err != nil {
		slog.Error("spartand: bad flags", "err", err)
		os.Exit(2)
	}
	slog.SetDefault(log)

	reg := obs.NewRegistry()
	srv := &http.Server{
		Addr: *addr,
		Handler: server.New(
			server.WithLogger(log),
			server.WithRegistry(reg),
			server.WithMaxConcurrent(*maxConcurrent),
			server.WithRequestTimeout(*requestTimeout),
			server.WithSegmentRows(*segmentRows),
		),
		ReadHeaderTimeout: 10 * time.Second,
		// Compression of large uploads can legitimately take a while;
		// bound only the idle phases.
		IdleTimeout: 2 * time.Minute,
	}

	// SIGINT/SIGTERM begin a graceful shutdown: stop accepting, let
	// in-flight compressions finish within the drain timeout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		go serveDebug(*debugAddr, reg, log)
	}

	errc := make(chan error, 1)
	go func() {
		log.Info("spartand listening", "addr", *addr, "debug_addr", *debugAddr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("spartand: serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		log.Info("shutting down", "drain_timeout", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Error("drain incomplete, closing", "err", err)
			_ = srv.Close()
			os.Exit(1)
		}
		log.Info("shutdown complete")
	}
}

// newLogger builds the process logger for the requested -log-format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, errors.New(`-log-format must be "text" or "json"`)
	}
}

// serveDebug runs the pprof + metrics debug listener. It is best-effort:
// failure is logged, not fatal, so a busy debug port never takes the
// service down.
func serveDebug(addr string, reg *obs.Registry, log *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Error("debug listener failed", "addr", addr, "err", err)
	}
}
