// Command nymbled serves the nymble tool family over HTTP/JSON:
//
//	POST /v1/compile              compile report (nymblec -json)
//	POST /v1/vet                  compile-time diagnostics (nymblevet -json)
//	POST /v1/perf                 static performance bounds (nymbleperf -json)
//	POST /v1/run                  enqueue a simulation job (add "wait":true for sync)
//	GET  /v1/jobs/{id}            poll a job document
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET  /v1/jobs/{id}/trace/{f}  download trace.prv, trace.prv.gz, trace.pcf, trace.row
//	GET  /healthz                 liveness + cache/store/coalescer counters
//	GET  /metrics                 Prometheus text: requests, latency, cache, store, queue
//
// Responses marshal the same internal/api structs as the CLIs' -json
// modes, so daemon and CLI output are byte-identical for the same
// input; trace downloads stream the exact bytes nymblesim writes to
// disk. Builds go through a content-addressed compile cache (see the
// X-Nymbled-Cache response header), simulations run on a bounded
// worker pool, and SIGINT/SIGTERM drains in-flight jobs before exit.
//
// With -store DIR, finished runs persist to a digest-keyed on-disk
// artifact store: a repeat POST /v1/run — across restarts too — is a
// disk read, not a simulation (X-Nymbled-Store: hit). Identical
// in-flight runs coalesce onto one simulation (-coalesce-window /
// -coalesce-max), and -maxqueue sheds queue overload with 429.
//
// Usage:
//
//	nymbled [-addr :8080] [-j N] [-maxcycles N] [-drain D] [-pprof addr]
//	        [-store DIR] [-store-max-bytes N] [-coalesce-window D]
//	        [-coalesce-max N] [-maxqueue N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paravis/internal/server"
	"paravis/internal/sim"
	"paravis/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("j", 0, "max simulations running concurrently (0 = GOMAXPROCS)")
	maxCycles := flag.Int64("maxcycles", 0, "default simulation cycle budget (0 = library default)")
	drain := flag.Duration("drain", 30*time.Second, "max time to drain in-flight jobs on shutdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; off by default)")
	storeDir := flag.String("store", "", "persist finished run artifacts in this directory (off by default)")
	storeMax := flag.Int64("store-max-bytes", 0, "artifact store byte budget, LRU-evicted past it (0 = 1 GiB)")
	coalesceWindow := flag.Duration("coalesce-window", 100*time.Millisecond, "how long a finished run keeps coalescing identical requests")
	coalesceMax := flag.Int("coalesce-max", 0, "max requests sharing one in-flight run, 429 past it (0 = unlimited)")
	maxQueue := flag.Int("maxqueue", 0, "max runs queued for a worker slot, 429 past it (0 = unlimited)")
	flag.Parse()

	cfg := sim.DefaultConfig()
	if *maxCycles > 0 {
		cfg.MaxCycles = *maxCycles
	}
	opts := server.Options{
		Workers:        *workers,
		SimCfg:         cfg,
		CoalesceWindow: *coalesceWindow,
		CoalesceMax:    *coalesceMax,
		MaxQueue:       *maxQueue,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *storeMax)
		if err != nil {
			fatal(err)
		}
		opts.Store = st
		fmt.Fprintf(os.Stderr, "nymbled: artifact store at %s (%d entries)\n", *storeDir, st.Stats().Entries)
	}
	srv := server.New(opts)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Profiling endpoint on its own listener, so the debug surface never
	// shares a port with the service API. Off unless -pprof is given.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "nymbled: pprof on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "nymbled: pprof:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "nymbled: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "nymbled: shutting down, draining jobs")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "nymbled: http shutdown:", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "nymbled: job drain:", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nymbled:", err)
	os.Exit(1)
}
