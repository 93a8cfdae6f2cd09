package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spire/internal/serve"
)

// cmdServe runs the long-running estimation service. It blocks until
// SIGINT/SIGTERM, then drains in-flight requests before returning.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address (use :0 for an ephemeral port)")
	modelPath := fs.String("model", "", "model file to serve at startup")
	modelDir := fs.String("model-dir", "", "persist accepted uploads here and resume the latest at startup")
	cache := fs.Int("cache", 128, "workload-index cache entries (negative disables)")
	maxBody := fs.Int64("max-body", 8<<20, "max request body bytes")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request estimation timeout")
	drain := fs.Duration("drain", 10*time.Second, "max time to drain in-flight requests on shutdown")
	pprofFlag := fs.Bool("pprof", false, "expose /debug/pprof/ (local debugging only)")
	maxInflight := fs.Int("max-inflight", 0, "cap concurrently running estimations (0 = 4x GOMAXPROCS, negative disables the gate)")
	admissionQueue := fs.Int("admission-queue", 0, "requests allowed to wait for an estimation slot (0 = 8x max-inflight, negative = no waiting room)")
	queueWait := fs.Duration("queue-wait", 0, "max time one request may wait in the admission queue (0 = 1s)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant request quota in requests/second (0 disables quotas)")
	tenantBurst := fs.Float64("tenant-burst", 0, "per-tenant burst capacity (0 = max(1, 2x tenant-rate))")
	degradedCache := fs.Int("degraded-cache", 0, "cached responses servable while the gate is saturated (0 = 64, negative disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments (got %q)", fs.Args())
	}

	srv := serve.New(serve.Config{
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		CacheEntries:   *cache,
		ModelDir:       *modelDir,
		EnablePprof:    *pprofFlag,
		MaxConcurrent:  *maxInflight,
		AdmissionQueue: *admissionQueue,
		QueueWait:      *queueWait,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
		DegradedCache:  *degradedCache,
	})

	// Resume the newest persisted model first so an explicit -model always
	// wins (it loads second and becomes current).
	if *modelDir != "" {
		info, err := srv.Models().LoadLatestFromDir()
		if err != nil {
			return fmt.Errorf("resuming model from %s: %w", *modelDir, err)
		}
		if info != nil {
			fmt.Fprintf(os.Stderr, "spire serve: resumed model %s (%d metrics) from %s\n",
				info.ID[:12], info.Metrics, *modelDir)
		}
	}
	if *modelPath != "" {
		info, err := srv.Models().LoadFile(*modelPath)
		if err != nil {
			return fmt.Errorf("loading %s: %w", *modelPath, err)
		}
		fmt.Fprintf(os.Stderr, "spire serve: loaded model %s (%d metrics) from %s\n",
			info.ID[:12], info.Metrics, *modelPath)
	}
	if _, info := srv.Models().Current(); info == nil {
		fmt.Fprintln(os.Stderr, "spire serve: no model loaded; serving will return 503 until one is POSTed to /v1/models")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The e2e harness scrapes this line for the bound port, so keep the
	// "listening on" phrasing stable.
	fmt.Fprintf(os.Stderr, "spire serve: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Serve(ctx, ln, *drain); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "spire serve: drained, shutting down")
	return nil
}
