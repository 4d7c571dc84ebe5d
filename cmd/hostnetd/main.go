// Command hostnetd serves the host-network simulator over HTTP: submit
// experiment job specs, poll or stream their progress, and fetch results
// that are byte-identical to `hostnetsim -format json`.
//
// Usage:
//
//	hostnetd [-addr :8080] [-queue 64] [-workers 2] [-parallel N]
//	         [-job-timeout 15m] [-drain-timeout 30s] [-cache-bytes N]
//	         [-max-window 10ms] [-audit] [-version]
//	         [-store DIR] [-store-bytes N] [-tenant-quota N]
//	         [-fleet URL,URL,...] [-fleet-inflight N] [-warm names|all]
//	         [-fidelity both|sim|analytic] [-refine]
//
// Endpoints:
//
//	POST   /jobs              submit a job spec (429 + Retry-After when full)
//	POST   /jobs/batch        submit a suite of specs, per-item outcomes
//	GET    /jobs              list known jobs
//	GET    /jobs/{id}         job status
//	GET    /jobs/{id}/result  result bytes (?wait=true blocks until done)
//	GET    /jobs/{id}/stream  NDJSON progress stream
//	DELETE /jobs/{id}         cancel
//	GET    /experiments       valid experiment names
//	GET    /crossval          analytic-vs-sim error per config-space region
//	GET    /healthz           liveness + drain state + store/fleet readiness
//	GET    /metrics           Prometheus text format
//	GET    /version           build info
//
// Specs carrying "fidelity": "analytic" are answered inline by the §7
// predictive model — microseconds instead of a queue slot — and still
// cached and stored by content address; specs the model cannot answer get
// 422. -fidelity restricts which tiers this server accepts; -refine makes
// every fresh analytic answer enqueue its sim twin at background priority
// and fold the comparison into GET /crossval.
//
// With -store DIR, results persist on disk by content address and survive
// restarts; a fleet of daemons pointed at one directory shares them. With
// -fleet, the daemon becomes a sharding coordinator: splittable sweeps are
// fanned out point-by-point to the listed worker daemons and merged into
// bytes identical to a single-node run. -warm pre-simulates the named
// experiment suites (comma-separated, or "all") in the background so later
// submissions hit the cache.
//
// On SIGINT/SIGTERM the daemon stops admission, drains accepted jobs for
// -drain-timeout, cancels whatever remains (flushing completed results to
// the store first), and exits 0 on a clean drain.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/version"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("hostnetd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	queue := fs.Int("queue", 64, "bounded job queue depth (full queue sheds load with 429)")
	workers := fs.Int("workers", 2, "jobs executed concurrently")
	parallel := fs.Int("parallel", 0, "sweep-pool width inside one job (0 = GOMAXPROCS)")
	jobTimeout := fs.Duration("job-timeout", 15*time.Minute, "per-job wall-clock timeout")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline")
	cacheBytes := fs.Int64("cache-bytes", 256<<20, "result cache byte cap")
	maxWindow := fs.Duration("max-window", 10*time.Millisecond, "max simulated window/warmup per job (<0 disables)")
	audit := fs.Bool("audit", false, "run simulator invariant audits inside jobs")
	storeDir := fs.String("store", "", "persistent result store directory (empty disables)")
	storeBytes := fs.Int64("store-bytes", 1<<30, "persistent store payload byte cap (<0 disables)")
	fleetURLs := fs.String("fleet", "", "comma-separated worker base URLs: run as sharding coordinator")
	fleetInflight := fs.Int("fleet-inflight", 2, "max in-flight points per fleet worker")
	tenantQuota := fs.Int("tenant-quota", 0, "max admitted jobs per X-Tenant header (0 disables)")
	fidelity := fs.String("fidelity", "both", "fidelity tiers served: both, sim, or analytic")
	refine := fs.Bool("refine", false, "follow analytic answers with background sim twins feeding GET /crossval")
	warm := fs.String("warm", "", "comma-separated experiment names (or 'all') to pre-warm after startup")
	ver := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ver {
		fmt.Println("hostnetd", version.Get())
		return 0
	}

	switch *fidelity {
	case "both", "sim", "analytic":
	default:
		log.Printf("-fidelity %q: valid values are both, sim, analytic", *fidelity)
		return 2
	}
	cfg := serve.Config{
		QueueDepth:  *queue,
		Workers:     *workers,
		Parallelism: *parallel,
		JobTimeout:  *jobTimeout,
		CacheBytes:  *cacheBytes,
		MaxWindowNs: maxWindow.Nanoseconds(),
		Audit:       *audit,
		TenantQuota: *tenantQuota,
		Fidelity:    *fidelity,
		Refine:      *refine,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Config{MaxBytes: *storeBytes})
		if err != nil {
			log.Printf("opening store: %v", err)
			return 1
		}
		cfg.Store = st
		log.Printf("store %s: %d entries, %d payload bytes", st.Dir(), st.Len(), st.Bytes())
	}
	if *fleetURLs != "" {
		var ws []fleet.Worker
		for _, u := range strings.Split(*fleetURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				ws = append(ws, fleet.Worker{URL: u, MaxInFlight: *fleetInflight})
			}
		}
		coord, err := fleet.New(fleet.Config{Workers: ws})
		if err != nil {
			log.Printf("fleet: %v", err)
			return 1
		}
		cfg.Fleet = coord
		log.Printf("coordinator mode: %d workers", coord.Workers())
	}
	warmSuite, err := warmSpecs(*warm)
	if err != nil {
		log.Printf("-warm: %v", err)
		return 2
	}

	srv := serve.New(cfg)
	httpSrv := newHTTPServer(*addr, srv.Handler(), readHeaderTimeout, readTimeout, idleTimeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("hostnetd %s listening on %s (queue %d, workers %d)", version.Get(), *addr, *queue, *workers)

	if len(warmSuite) > 0 {
		// Warm in the background: the daemon serves immediately, and specs
		// already in the store complete for free.
		go func() {
			done, failed := srv.Warm(ctx, warmSuite)
			log.Printf("warm: %d done, %d failed of %d specs", done, failed, len(warmSuite))
		}()
	}

	select {
	case err := <-errc:
		log.Printf("listen: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	log.Printf("signal received; draining for up to %v", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		log.Printf("drain: %v", drainErr)
		return 1
	}
	log.Printf("drained cleanly")
	return 0
}

// The HTTP server's timeouts. A client must send its request headers
// within readHeaderTimeout and its whole request, body included, within
// readTimeout, so a client that stalls mid-body is disconnected too. An
// idle keep-alive connection closes after idleTimeout, longer than
// net/http clients' default 90 s so a client never reuses a connection the
// server is closing. net/http lifts the read deadline once a request's body
// is read, so a ?wait=true long-poll or a /stream outlasts readTimeout.
// There is no WriteTimeout: those responses write only as their job
// progresses, and a write deadline would cut them.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's HTTP server with the given header,
// request-read and idle timeouts.
func newHTTPServer(addr string, h http.Handler, readHeader, read, idle time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeader, ReadTimeout: read, IdleTimeout: idle}
}

// warmSpecs expands the -warm argument into default-spec jobs: one per
// named experiment, or the full figure suite for "all".
func warmSpecs(arg string) ([]exp.Spec, error) {
	if arg == "" {
		return nil, nil
	}
	names := strings.Split(arg, ",")
	if strings.TrimSpace(arg) == "all" {
		names = exp.Experiments()
	}
	var specs []exp.Spec
	for _, n := range names {
		s := exp.Spec{Experiment: strings.TrimSpace(n)}
		if s.Experiment == "" {
			continue
		}
		if s.Validate() != nil {
			return nil, fmt.Errorf("unknown experiment %q (see GET /experiments)", s.Experiment)
		}
		specs = append(specs, s)
	}
	return specs, nil
}
