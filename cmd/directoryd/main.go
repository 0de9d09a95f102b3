// Command directoryd serves a clustered hidden-web database directory
// over HTTP — cluster browsing, ranked page search, database selection
// and classification of new sources, the paper's Section 6
// "query-based interface" for exploring CAFC's clusters — and grows it
// while it serves: documents POSTed to /ingest join the model, and each
// published model epoch hot-swaps the directory.
//
// Usage:
//
//	directoryd -in corpus.json.gz -addr :8080     # CAFC-CH genesis, in memory
//	directoryd -in corpus.json.gz -data ./state   # durable: WAL + snapshots
//	directoryd -in "" -data ./state               # cold start
//	directoryd -in corpus.json.gz -metrics        # adds /metrics, /debug/*
//
// With -data, a restart recovers the directory it stopped at from the
// state dir; recovery wins over -in.
//
// Replication (see DESIGN.md "Replication & topology"):
//
//	directoryd -role leader -in "" -data ./lead              # + /repl/*
//	directoryd -role follower -leader http://host:8080 -data ./foll
//
// A leader additionally streams its WAL at /repl/wal and its snapshot
// at /repl/snapshot. A follower bootstraps from those, tails the WAL
// with backoff, serves read-only /classify and browse traffic, forwards
// POST /ingest to the leader, and degrades /healthz once replication
// lag exceeds -max-lag, so any HTTP load balancer over the leader and
// its followers spreads reads and drops a stale replica.
//
// Endpoints: /  /cluster?id=N  /select?q=...  /search?q=... (JSON)
// POST /ingest, GET /status, POST /classify, GET /debug/quality
// (online quality snapshots) and /healthz, which reports 503 while cold
// or degraded (saturated ingest queue).
// With -metrics: /metrics (Prometheus text), /debug/vars (JSON),
// /debug/trace (recent spans: the startup phases, and one span per
// request with -reqlog), /debug/pprof/*; -slo-classify-ms and
// -slo-ingest-ms set the latency objectives behind the per-endpoint
// error-budget burn gauges, and -reqlog adds structured JSON request
// logs carrying trace ids.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cafc/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("directoryd: ")
	var (
		in      = flag.String("in", "corpus.json.gz", "input dataset")
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		k       = flag.Int("k", 8, "number of clusters (at least 1; a follower must run its leader's -k, -seed and -drift)")
		seed    = flag.Int64("seed", 1, "clustering seed")
		metrics = flag.Bool("metrics", false, "expose /metrics, /debug/vars, /debug/trace and /debug/pprof")
		retries = flag.Int("retries", 3, "backlink query attempts, backoff between them (0 disables the resilience wrapper)")
		budget  = flag.Int("backlink-budget", 0, "total backlink query budget, retries included (0 = unlimited)")
		// Chaos knob for the check.sh smoke: the in-process backlink
		// service dies permanently after N answered queries, so startup
		// exercises the breaker-trip + degraded-hub path end to end.
		outageAfter = flag.Int("backlink-outage-after", -1, "kill the backlink service after N queries (-1 = never; testing aid)")

		// Every start is live; the flag stays so existing command lines
		// keep parsing.
		_    = flag.Bool("live", false, "accepted for compatibility and ignored: every directory is live")
		data = flag.String("data", "", "durable state dir (WAL + snapshots; empty = in memory); recovery wins over -in")
		// Replication flags (see follower.go).
		role          = flag.String("role", "", "replication role: leader | follower (empty = standalone)")
		leader        = flag.String("leader", "", "leader base URL (follower: replication source + write forwarding)")
		maxLag        = flag.Int64("max-lag", 64, "follower staleness threshold: /healthz degrades once replication lag exceeds this many epochs")
		replPoll      = flag.Duration("repl-poll", 200*time.Millisecond, "follower replication poll interval")
		batch         = flag.Int("batch", 0, "live ingest batch size (0 = default)")
		queue         = flag.Int("queue", 0, "live ingest queue bound (0 = default)")
		flush         = flag.Duration("flush", 0, "live partial-batch flush interval (0 = default)")
		drift         = flag.Float64("drift", 0, "reassignment fraction that triggers a full re-cluster (0 = default, >=1 disables)")
		snapshotEvery = flag.Int("snapshot-every", 0, "checkpoint a snapshot every N WAL records (0 = only on drain)")
		ingestWorkers = flag.Int("ingest-workers", 0, "parse/embed shard count per ingest batch (0 = one per CPU, 1 = serial; epochs are identical for every value)")
		groupCommit   = flag.Int("group-commit", 0, "batch up to N WAL records per fsync (0 = fsync per record; leaders only, a crash loses at most the unacknowledged buffer)")
		commitWindow  = flag.Duration("commit-window", 0, "max time a buffered WAL record waits for its group fsync (0 = flush interval)")
		sloClassifyMS = flag.Float64("slo-classify-ms", 50, "classify latency objective in ms (burn gauges need -metrics)")
		sloIngestMS   = flag.Float64("slo-ingest-ms", 20, "ingest latency objective in ms (burn gauges need -metrics)")
		reqlog        = flag.Bool("reqlog", false, "structured JSON request logs on stderr")
	)
	flag.Parse()

	// Observability: the registry collects model/clustering telemetry
	// during startup and HTTP telemetry while serving; the tracer records
	// the startup phases into a ring buffer (served at /debug/trace) and
	// the log.
	var (
		reg    *obs.Registry
		ring   *obs.RingSink
		tracer *obs.Tracer
	)
	ctx := context.Background()
	if *metrics {
		reg = obs.NewRegistry()
		ring = obs.NewRingSink(256)
		tracer = obs.NewTracer(ring, obs.LogSink{Logger: log.Default()})
		ctx = obs.WithTracer(ctx, tracer)
	}

	switch *role {
	case "":
	case "leader":
		if *data == "" {
			log.Fatal("-role leader requires -data (followers bootstrap from its WAL)")
		}
	case "follower":
		if *leader == "" || *data == "" {
			log.Fatal("-role follower requires -leader and -data")
		}
	default:
		log.Fatalf("unknown -role %q (leader | follower)", *role)
	}

	lp := liveParams{
		in:            *in,
		addr:          *addr,
		data:          *data,
		k:             *k,
		seed:          *seed,
		metrics:       *metrics,
		retries:       *retries,
		budget:        *budget,
		batch:         *batch,
		queue:         *queue,
		flush:         *flush,
		drift:         *drift,
		snapshotEvery: *snapshotEvery,
		ingestWorkers: *ingestWorkers,
		groupCommit:   *groupCommit,
		commitWindow:  *commitWindow,
		sloClassifyMS: *sloClassifyMS,
		sloIngestMS:   *sloIngestMS,
		reqlog:        *reqlog,
		outageAt:      *outageAfter + 1,
		role:          *role,
	}

	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var err error
	if *role == "follower" {
		err = runFollower(ctx, followerParams{
			liveParams: lp,
			leader:     strings.TrimRight(*leader, "/"),
			maxLag:     *maxLag,
			poll:       *replPoll,
		}, reg, ring, tracer)
	} else {
		err = runLive(ctx, lp, reg, ring, tracer)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// checkK refuses a cluster count below one before either role opens its
// state dir or listens: CAFC-CH would found the directory on no cluster
// at all, and the live pipeline, which reads K 0 as its default of 8,
// would reshape it at the first ingest.
func checkK(k int) error {
	if k < 1 {
		return fmt.Errorf("-k %d: the directory needs at least one cluster", k)
	}
	return nil
}

// serve is directoryd's one listen/serve/shutdown loop, for both roles.
// It mounts h behind the -metrics debug routes and the -reqlog request
// logs, listens, and prints banner with the bound address on stdout,
// the line scripts read that address from (so -addr :0 works). It
// serves until ctx ends, then stops HTTP intake, giving in-flight
// requests up to 10 s, and runs the role's stop step under the same
// deadline.
func serve(ctx context.Context, p liveParams, reg *obs.Registry, ring *obs.RingSink, tracer *obs.Tracer,
	h http.Handler, banner string, stop func(context.Context) error) error {
	if p.metrics {
		dm := obs.DebugMux(reg, ring, true)
		dm.Handle("/", obs.InstrumentHandler(reg, h))
		h = dm
	}
	if p.reqlog {
		logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
		h = obs.RequestLogger(logger, tracer, h)
	}

	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return err
	}
	fmt.Printf("%s on http://%s/\n", banner, ln.Addr())
	if p.metrics {
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}

	httpSrv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		// Generous write timeout: /debug/pprof/profile streams for 30s by
		// default and /debug/pprof/trace can run longer.
		WriteTimeout: 120 * time.Second,
		IdleTimeout:  60 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Print("draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := stop(shutCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Print("drained")
	return nil
}
