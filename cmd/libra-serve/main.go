// Command libra-serve exposes the LIBRA Engine over HTTP: a concurrent,
// cached optimization service for design-space exploration tooling.
//
//	libra-serve -addr :8080 -workers 8 -cache 1024
//
// The v2 surface speaks the unified task envelope
// {"kind": "optimize|evaluate|sweep|frontier|codesign|validate|cluster",
// "spec": <that kind's request payload>} — synchronously or as
// observable, cancellable background jobs:
//
//	POST   /v2/tasks              task envelope → the kind's result payload
//	POST   /v2/jobs               task envelope → job (202 Accepted)
//	GET    /v2/jobs               ?status=&offset=&limit= → {"jobs": [...], "total": n}
//	GET    /v2/jobs/{id}          → job (result included when done)
//	DELETE /v2/jobs/{id}          cancel → job (status "cancelled")
//	GET    /v2/jobs/{id}/events   Server-Sent Events: status + progress + span stream
//	GET    /v1/stats              engine + job-manager stats
//	GET    /healthz | /readyz     liveness | readiness
//	GET    /metrics               Prometheus text exposition
//
// The legacy per-kind endpoints remain as thin shims over the same
// dispatch — each accepts exactly the envelope's kind payload and returns
// exactly the payload /v2/tasks returns for that kind:
//
//	POST /v1/optimize  ProblemSpec                      → EngineResult
//	POST /v1/evaluate  {"spec": ..., "bw": [...]}       → EngineResult
//	POST /v1/sweep     {"spec": ..., "sweep": {...}}    → {"points": [SweepPoint]}
//	POST /v1/frontier  {"spec": ..., "frontier": {...}} → FrontierResult
//	POST /v1/codesign  CoDesignSpec                     → CoDesignReport
//	POST /v1/validate  ValidateSpec (empty = defaults)  → ValidationReport
//	POST /v1/cluster   ClusterSpec (empty = defaults)   → ClusterReport
//
// Errors are JSON {"error": <message>, "code": <stable machine code>}
// with codes bad_spec, cancelled, unavailable, not_found,
// method_not_allowed, too_large, too_many_jobs, internal.
//
// Every request is traced: a well-formed inbound X-Request-Id is honored
// (otherwise an ID is minted), echoed back on the response, logged on the
// access line, and carried onto async jobs where solver spans record
// against it. Logs are structured (log/slog); -log-format json emits one
// JSON object per line. -debug-addr starts a second listener serving
// net/http/pprof and expvar — keep it off the public interface.
//
// Repeated identical requests are answered from the LRU result cache
// (keyed by the spec's canonical fingerprint); identical concurrent
// requests share one solve. Client disconnects cancel abandoned solves.
// The HTTP layer itself lives in internal/server; this command is the
// wiring.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "expvar"         // /debug/vars on the -debug-addr listener
	_ "net/http/pprof" // /debug/pprof on the -debug-addr listener

	"libra"
	"libra/internal/cliutil"
	"libra/internal/jobs"
	"libra/internal/server"
	"libra/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
		cache     = flag.Int("cache", 512, "LRU result-cache entries (negative disables)")
		maxBody   = flag.Int64("max-body", 1<<20, "maximum request body bytes")
		jobCap    = flag.Int("jobs", 512, "maximum retained async jobs (running + terminal)")
		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log format: text|json")
		debugAddr = flag.String("debug-addr", "", "listen address for pprof/expvar debug endpoints (empty disables)")
		printURL  = flag.Bool("print-addr", false, "print the resolved listen URL to stdout once serving (useful with :0)")

		cacheDir = flag.String("cache-dir", "",
			"directory for the persistent result cache (empty = memory-only)")
		compactBytes = flag.Int64("cache-compact-bytes", 4<<20,
			"bytes appended to the disk-cache log since its last compaction that trigger the next one (negative disables)")
		warmupPath = flag.String("warmup", "",
			"JSONL file of task envelopes replayed through the engine before serving (hot-spec warmup)")
	)
	flag.Parse()

	logger, err := libra.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		cliutil.Fatal("libra-serve", err)
	}
	slog.SetDefault(logger)

	engineCfg := libra.EngineConfig{Workers: *workers, CacheSize: *cache}
	if *cacheDir != "" {
		st, err := store.Open(store.Config{Dir: *cacheDir, CompactBytes: *compactBytes})
		if err != nil {
			cliutil.Fatal("libra-serve", err)
		}
		defer st.Close()
		engineCfg.Store = st
		ds := st.Stats()
		logger.Info("persistent cache open",
			"dir", *cacheDir, "entries", ds.Entries, "bytes", ds.Bytes, "stale", ds.Stale)
	}
	engine := libra.NewEngine(engineCfg)
	defer engine.Close()

	if *warmupPath != "" {
		if err := replayWarmup(context.Background(), engine, *warmupPath, logger); err != nil {
			cliutil.Fatal("libra-serve", err)
		}
	}
	manager := libra.NewJobManager(libra.JobConfig{Engine: engine, Capacity: *jobCap})
	defer manager.Close()

	ln, lnErr := net.Listen("tcp", *addr)
	if lnErr != nil {
		cliutil.Fatal("libra-serve", lnErr)
	}
	srv := newServer(newMux(engine, manager, *maxBody, logger), readHeaderTimeout)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	if *debugAddr != "" {
		// The debug listener serves http.DefaultServeMux, where the pprof
		// and expvar imports registered — separate from the API listener so
		// profiling endpoints never face API clients.
		go func() {
			logger.Info("debug listener serving pprof/expvar", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err)
			}
		}()
	}

	logger.Info("libra-serve listening",
		"addr", ln.Addr().String(), "workers", *workers, "cache", *cache, "jobs", *jobCap)
	if *printURL {
		fmt.Printf("http://%s\n", ln.Addr())
	}
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cliutil.Fatal("libra-serve", err)
	}
}

// Connection timeouts. A client has readHeaderTimeout to send a request's
// headers, which closes slow-header (slowloris) connections, and an idle
// keep-alive connection is closed after idleTimeout. Read and write
// timeouts stay unset: they would cut SSE job streams and the upload of
// large request bodies.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the API server around h with the connection timeouts;
// tests pass a short headerTimeout.
func newServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

// newMux builds the full service handler (see internal/server).
func newMux(engine *libra.Engine, manager *jobs.Manager, maxBody int64, logger *slog.Logger) http.Handler {
	return server.New(server.Options{Engine: engine, Jobs: manager, MaxBody: maxBody, Logger: logger})
}
