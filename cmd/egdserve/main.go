// Command egdserve runs the multi-tenant simulation service: an HTTP/JSON
// daemon that queues submitted jobs, runs them on the engine at the rank
// count each job asks for with a bounded worker pool, streams progress as
// Server-Sent Events, supports checkpoint-backed pause/resume/cancel, and
// serves the egd_* metrics catalog at /metrics. A perfmodel-driven
// admission controller prices every submission against the configured
// budgets, and per-tenant quotas plus token-bucket rate limits keep the
// service fair under heavy traffic (see docs/SERVICE.md).
//
// With -data-dir the job table is durable: every transition is journaled
// to an fsync'd write-ahead log and running jobs checkpoint to disk, so a
// crashed or drained daemon restarted over the same directory resumes
// interrupted jobs and finishes them bit-identically.
//
// Examples:
//
//	egdserve -addr :8080 -workers 4
//	egdserve -addr :8080 -data-dir /var/lib/egdserve -drain-timeout 60s
//	egdserve -addr 127.0.0.1:0 -workers 8 -max-job-seconds 3600 \
//	    -tenant-max-active 16 -tenant-rate 5 -tenant-burst 10 -cal host
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/game"
	"repro/internal/perfmodel"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "egdserve:", err)
		os.Exit(1)
	}
}

// testHookReady, when set by a test, receives the bound address and a
// shutdown trigger once the listener is serving.
var testHookReady func(addr string, shutdown func())

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("egdserve", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 2, "concurrent simulation workers")
	queue := fs.Int("queue", 64, "pending-job queue depth")
	maxJobSeconds := fs.Float64("max-job-seconds", 0, "per-job modelled cost ceiling in seconds (0 = unlimited)")
	maxOutstanding := fs.Float64("max-outstanding-seconds", 0, "modelled cost budget across all non-terminal jobs (0 = unlimited)")
	tenantMaxActive := fs.Int("tenant-max-active", 0, "per-tenant active-job cap (0 = unlimited)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant submissions per second (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant submission burst (with -tenant-rate)")
	cal := fs.String("cal", "paper", "admission cost calibration: paper (deterministic) or host (measured)")
	dataDir := fs.String("data-dir", "", "durable job store directory: journal every job transition and recover interrupted jobs on restart (empty = in-memory only)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "with -data-dir, how long shutdown waits for running jobs to reach a generation boundary and checkpoint")
	checkpointEvery := fs.Int("checkpoint-every", 0, "with -data-dir, snapshot cadence in generations for jobs whose spec sets none (0 = 250)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	cost := server.DefaultCostModel()
	switch *cal {
	case "paper":
	case "host":
		c, err := perfmodel.HostCalibration(game.DefaultRules(), 3, false, 1)
		if err != nil {
			return fmt.Errorf("host calibration: %w", err)
		}
		cost = server.CostModel{Cal: c, CalRounds: game.DefaultRounds}
	default:
		return fmt.Errorf("unknown calibration %q (want paper or host)", *cal)
	}

	srv, err := server.New(server.Options{
		Workers:               *workers,
		QueueDepth:            *queue,
		MaxJobSeconds:         *maxJobSeconds,
		MaxOutstandingSeconds: *maxOutstanding,
		Tenant: server.TenantLimits{
			MaxActive:  *tenantMaxActive,
			RatePerSec: *tenantRate,
			Burst:      *tenantBurst,
		},
		Cost:            cost,
		DataDir:         *dataDir,
		CheckpointEvery: *checkpointEvery,
		Log: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if testHookReady != nil {
		testHookReady(ln.Addr().String(), stop)
	}
	fmt.Fprintf(out, "egdserve: listening on http://%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	if *dataDir != "" {
		// Durable shutdown is a drain: running jobs stop at the next
		// generation boundary with a checkpoint on disk and are journaled
		// queued, so the next boot finds no job interrupted and resumes
		// every parked trajectory bit-identically.
		fmt.Fprintln(out, "egdserve: draining (running jobs checkpoint and park)")
		if err := srv.Drain(*drainTimeout); err != nil {
			fmt.Fprintln(out, "egdserve:", err)
		} else {
			fmt.Fprintln(out, "egdserve: drain complete, no job left running")
		}
	} else {
		fmt.Fprintln(out, "egdserve: shutting down")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	return nil
}
