// Command sepdld serves a Datalog program over HTTP/JSON: a long-running
// process whose plan and closure caches stay warm across requests, with
// the overload behaviour a shared endpoint needs — admission control
// surfacing as 503 + Retry-After, per-request budgets as 429/408,
// per-client token-bucket quotas, Prometheus /metrics, and graceful drain
// on SIGTERM (finish in-flight, reject new with 503, exit 0). The server
// keeps no per-client state between requests beyond the quota buckets.
//
// Usage:
//
//	sepdld -program rules.dl -facts data.dl -addr :8080
//	sepdld -program rules.dl -facts data.dl -concurrency 8 -admit-wait 100ms \
//	       -quota-rps 50 -max-deadline 5s -max-tuples 1000000
//	sepdld -data-dir /var/lib/sepdl -program rules.dl
//
// With -data-dir every accepted write (POST /v1/facts, /v1/load) is
// appended to a write-ahead log and fsynced before it is acknowledged;
// on restart the state is recovered — including after a crash mid-write —
// before the listener binds, so /readyz never reports ready with a
// partial database. -program/-facts only bootstrap an empty data dir;
// recovered state wins on later restarts.
//
// Endpoints: POST /v1/{query,batch,facts,load};
// GET /healthz, /readyz, /metrics. See internal/server for wire formats.
//
// On SIGTERM or SIGINT the server drains: /readyz flips to 503 so load
// balancers stop routing here, new /v1 requests are rejected with 503 +
// Retry-After, queries already admitted run to completion, and the
// process exits 0 once idle (or once -drain-grace expires).
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
	"strings"
	"syscall"
	"time"

	"sepdl"
	"sepdl/internal/leakcheck"
	"sepdl/internal/server"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is main minus the process plumbing, so tests can drive a full
// serve-drain-exit cycle in-process. It returns the exit code; sig
// delivers the shutdown signal.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("sepdld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		programPath = fs.String("program", "", "path to the Datalog rules file (required unless -data-dir has state)")
		factsPath   = fs.String("facts", "", "comma-separated paths to ground-facts files")

		dataDir    = fs.String("data-dir", "", "durable data directory (write-ahead log); empty = in-RAM only")
		ckptBytes  = fs.Int64("checkpoint-bytes", 0, "log growth that triggers a checkpoint; 0 = default, negative disables")
		noSync     = fs.Bool("no-sync", false, "skip fsync per write; durability only at checkpoints and shutdown")
		memBytes   = fs.Int64("memtable-bytes", 0, "in-RAM overlay budget before facts flush to sorted segment files; 0 disables the trigger")
		cacheBytes = fs.Int64("block-cache-bytes", 0, "segment block-cache budget; 0 = default (32 MiB), negative disables retention")

		concurrency = fs.Int("concurrency", 0, "max queries evaluated at once; 0 unlimited")
		admitWait   = fs.Duration("admit-wait", 100*time.Millisecond, "how long an over-limit query queues before 503")
		strict      = fs.Bool("strict", false, "reject the program unless the full static-analysis pass is clean")

		defaultDeadline = fs.Duration("default-deadline", 0, "deadline for requests that set none; 0 = unlimited")
		maxDeadline     = fs.Duration("max-deadline", 0, "cap on per-request deadlines; 0 = uncapped")
		maxTuples       = fs.Int("max-tuples", 0, "cap on per-request derived-tuple budgets; 0 = uncapped")
		maxRounds       = fs.Int("max-rounds", 0, "cap on per-request fixpoint-round budgets; 0 = uncapped")
		maxBytes        = fs.Int64("max-bytes", 0, "cap on per-request derived-bytes budgets; 0 = uncapped")

		quotaRPS   = fs.Float64("quota-rps", 0, "per-client requests/second (X-Sepdl-Client or remote IP); 0 disables quotas")
		quotaBurst = fs.Int("quota-burst", 0, "per-client burst allowance; 0 = 2x quota-rps")

		maxBody      = fs.Int64("max-body", 1<<20, "cap on request body bytes")
		retryAfter   = fs.Duration("retry-after", time.Second, "backoff hint on 503 responses")
		readTimeout  = fs.Duration("read-timeout", 30*time.Second, "HTTP read timeout (slowloris cutoff)")
		writeTimeout = fs.Duration("write-timeout", 60*time.Second, "HTTP write timeout (stalled-reader cutoff)")
		drainGrace   = fs.Duration("drain-grace", 30*time.Second, "how long shutdown waits for in-flight requests")
		drainDelay   = fs.Duration("drain-delay", 0, "how long to keep answering (with 503s for new work) after the drain starts, so load balancers see /readyz flip before the listener closes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *programPath == "" && *dataDir == "" {
		fmt.Fprintln(stderr, "sepdld: -program is required")
		fs.Usage()
		return 2
	}

	opts := []sepdl.EngineOption{
		sepdl.WithMaxConcurrent(*concurrency),
		sepdl.WithAdmissionWait(*admitWait),
	}
	if *strict {
		opts = append(opts, sepdl.WithStrictChecks())
	}
	var eng *sepdl.Engine
	if *dataDir != "" {
		// Open recovers the persisted state (replaying the log, truncating
		// any crash-torn tail) before returning, so by the time the
		// listener binds and /readyz answers, the database is complete.
		opts = append(opts, sepdl.WithCheckpointBytes(*ckptBytes), sepdl.WithSyncWrites(!*noSync),
			sepdl.WithMemtableBytes(*memBytes), sepdl.WithBlockCacheBytes(*cacheBytes))
		var err error
		if eng, err = sepdl.Open(*dataDir, opts...); err != nil {
			fmt.Fprintln(stderr, "sepdld:", err)
			return 1
		}
		defer eng.Close()
		if w := eng.Stats().WAL; w.RecoveredRecords > 0 || w.RecoveryTruncations > 0 {
			fmt.Fprintf(stdout, "sepdld: recovered %d log records (%d bytes, %d torn tails truncated) in %s\n",
				w.RecoveredRecords, w.RecoveredBytes, w.RecoveryTruncations,
				time.Duration(w.RecoveryNanos))
		}
	} else {
		eng = sepdl.New(opts...)
	}
	// -program/-facts bootstrap an empty engine; a durable engine that
	// already recovered state keeps it and ignores the bootstrap files, so
	// restarting with the same flags never double-loads the rules.
	if eng.ProgramText() == "" && eng.NumFacts() == 0 {
		if *programPath != "" {
			src, err := os.ReadFile(*programPath)
			if err != nil {
				fmt.Fprintln(stderr, "sepdld:", err)
				return 1
			}
			if err := eng.LoadProgram(string(src)); err != nil {
				fmt.Fprintln(stderr, "sepdld:", err)
				return 1
			}
		}
		if *factsPath != "" {
			for _, p := range strings.Split(*factsPath, ",") {
				data, err := os.ReadFile(strings.TrimSpace(p))
				if err != nil {
					fmt.Fprintln(stderr, "sepdld:", err)
					return 1
				}
				if err := eng.LoadFacts(string(data)); err != nil {
					fmt.Fprintln(stderr, "sepdld:", err)
					return 1
				}
			}
		}
	}

	srv := server.New(eng, server.Config{
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		MaxTuples:       *maxTuples,
		MaxRounds:       *maxRounds,
		MaxBytes:        *maxBytes,
		QuotaRPS:        *quotaRPS,
		QuotaBurst:      *quotaBurst,
		MaxBodyBytes:    *maxBody,
		RetryAfter:      *retryAfter,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "sepdld:", err)
		return 1
	}
	lnTok := leakcheck.OpenResource("listener " + ln.Addr().String())
	defer leakcheck.CloseResource(lnTok)
	hs := &http.Server{
		Handler:      srv,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}

	// The "listening on" line is the readiness handshake for smoke tools:
	// printed only once the listener is bound, with the resolved address
	// (so -addr :0 is usable in tests).
	fmt.Fprintf(stdout, "sepdld: listening on %s (%d facts loaded)\n",
		ln.Addr().String(), eng.NumFacts())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Serve never returns nil; anything here means the listener died.
		fmt.Fprintln(stderr, "sepdld:", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stdout, "sepdld: received %v; draining (grace %s)\n", s, *drainGrace)
	}

	// Drain: stop admitting (engine + /readyz flip atomically via the
	// engine's drain flag), optionally keep the listener up while load
	// balancers notice the flip — requests arriving in that window get the
	// typed 503 + Retry-After, not a connection error — then give in-flight
	// requests the grace period to finish before the HTTP server is torn
	// down.
	srv.StartDrain()
	if *drainDelay > 0 {
		time.Sleep(*drainDelay)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		// Grace expired with requests still running: report it and exit
		// nonzero so orchestrators can see the hard cutoff.
		fmt.Fprintln(stderr, "sepdld: drain grace expired:", err)
		hs.Close()
		return 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "sepdld:", err)
		return 1
	}
	fmt.Fprintln(stdout, "sepdld: drained; exiting")
	return 0
}
