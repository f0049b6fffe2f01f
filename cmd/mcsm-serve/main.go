// Command mcsm-serve runs the timing service: a long-lived HTTP/JSON
// daemon (internal/service) that keeps characterized CSM models hot
// across requests, coalesces identical in-flight work, and answers with
// the same bytes the CLI tools produce.
//
// Usage:
//
//	mcsm-serve                        # listen on :8720
//	mcsm-serve -addr 127.0.0.1:9000 -parallel 4 -cache models/
//	mcsm-serve -max-inflight 2 -timeout 2m
//
// Endpoints (see internal/service for request schemas):
//
//	POST /v1/sta     netlist/gen-spec in, canonical bit-exact STA report out
//	POST /v1/sweep   MIS skew/slew/load grid in, CSV or JSON surface out
//	POST /v1/char    warm a cell model into the shared cache
//	POST /v1/session build a stateful ECO session (retained timing graph)
//	POST /v1/eco     apply an edit batch to a session, get the delta report
//	GET  /healthz    liveness
//	GET  /metrics    cache hit rates, coalescing, sessions, throughput
//
// A quick round trip against the ISCAS85 c17 workload:
//
//	curl -s -X POST localhost:8720/v1/sta \
//	     -d @testdata/golden/c17_sta_request.json
//
// which answers byte-for-byte the committed golden fixture
// testdata/golden/c17_sta.json (the service determinism contract; CI
// enforces it on every push).
//
// SIGINT/SIGTERM trigger graceful shutdown: the listener stops, in-flight
// requests get -grace to finish, then outstanding computations are
// canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcsm/internal/cliutil"
	"mcsm/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8720", "listen address")
		inflight  = flag.Int("max-inflight", 0, "max concurrently computing analyses (0 = max(2, GOMAXPROCS/2)); excess requests queue")
		nlCache   = flag.Int("netlist-cache", 64, "parsed-netlist LRU capacity (entries)")
		graphCap  = flag.Int("graph-cap", 16, "warm LRU capacity: completed analyses whose encoded replies are retained so repeat requests skip computation (negative disables)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-request compute deadline (queue wait included)")
		sessCap   = flag.Int("session-cap", 32, "max live ECO sessions (LRU-evicted beyond; each retains full per-net waveform state)")
		sessTTL   = flag.Duration("session-ttl", 15*time.Minute, "idle ECO sessions expire after this")
		grace     = flag.Duration("grace", 30*time.Second, "graceful-shutdown drain window")
		quiet     = flag.Bool("quiet", false, "suppress per-request logs")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:8721); empty disables profiling")
		engFlags  = cliutil.RegisterEngineFlags(flag.CommandLine)
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (mcsm-serve takes only flags)", flag.Arg(0)))
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv := service.NewWithEngine(service.Config{
		MaxInFlight: *inflight,
		NetlistCap:  *nlCache,
		GraphCap:    *graphCap,
		Timeout:     *timeout,
		SessionCap:  *sessCap,
		SessionTTL:  *sessTTL,
		Logf:        logf,
	}, engFlags.NewEngine())

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("mcsm-serve: listening on %s (engine workers %d, cache dir %q)",
		ln.Addr(), srv.Engine().Workers(), engFlags.CacheDir)

	// -pprof mounts the runtime profiler on its OWN mux and port, never
	// the service mux: profiling endpoints expose goroutine stacks and
	// heap contents, so they stay off the service's network surface and
	// can be bound to loopback independently of -addr. Handlers are
	// registered explicitly rather than importing for the side effect, so
	// nothing leaks onto http.DefaultServeMux.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, perr := net.Listen("tcp", *pprofAddr)
		if perr != nil {
			fatal(perr)
		}
		pprofSrv = &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		log.Printf("mcsm-serve: pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("mcsm-serve: pprof server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("mcsm-serve: shutting down (drain %s)...", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	srv.Close() // cancel whatever did not drain
	if pprofSrv != nil {
		pprofSrv.Close() // profiling connections don't merit a drain
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
	st := srv.Snapshot()
	log.Printf("mcsm-serve: served %d sta / %d sweep / %d char requests (%d coalesced, model-cache hit rate %.0f%%)",
		st.Requests.STA, st.Requests.Sweep, st.Requests.Char,
		st.STACoalesced+st.SweepCoalesced, 100*st.ModelCache.HitRate)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsm-serve:", err)
	os.Exit(1)
}
