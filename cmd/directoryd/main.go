// Command directoryd serves a clustered hidden-web database directory
// over HTTP: cluster browsing, ranked page search and database selection
// — the paper's Section 6 "query-based interface" for exploring CAFC's
// clusters.
//
// Usage:
//
//	directoryd -in corpus.json.gz -addr :8080
//	directoryd -in corpus.json.gz -metrics   # adds /metrics, /debug/*
//	directoryd -live -in corpus.json.gz -data ./state   # streaming mode
//	directoryd -live -in "" -data ./state               # cold start
//
// Replication (see DESIGN.md "Replication & topology"):
//
//	directoryd -role leader -in "" -data ./lead              # live + /repl/*
//	directoryd -role follower -leader http://host:8080 -data ./foll
//
// A leader is a live directory that additionally streams its WAL at
// /repl/wal and its snapshot at /repl/snapshot. A follower bootstraps
// from those, tails the WAL with backoff, serves read-only /classify
// and browse traffic, forwards POST /ingest to the leader, and degrades
// /healthz once replication lag exceeds -max-lag, so any HTTP load
// balancer over the leader and its followers spreads reads and drops a
// stale replica.
//
// Endpoints: /  /cluster?id=N  /search?q=...  /select?q=...  /healthz
// With -live: POST /ingest, GET /status, POST /classify, GET
// /debug/quality (online quality snapshots); the directory rebuilds and
// hot-swaps on every published model epoch, and /healthz reports 503
// while cold or degraded (saturated ingest queue, open circuit breaker).
// With -metrics: /metrics (Prometheus text), /debug/vars (JSON),
// /debug/trace (recent spans: startup phases, which only static mode
// records, and one span per request with -reqlog), /debug/pprof/*;
// -slo-classify-ms and -slo-ingest-ms set the latency objectives behind
// the per-endpoint error-budget burn gauges, and -reqlog adds
// structured JSON request logs carrying trace ids.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cafc"
	"cafc/internal/crawler"
	"cafc/internal/dataset"
	"cafc/internal/directory"
	"cafc/internal/obs"
	"cafc/internal/retry"
	"cafc/internal/webgen"
	"cafc/internal/webgraph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("directoryd: ")
	var (
		in      = flag.String("in", "corpus.json.gz", "input dataset")
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		k       = flag.Int("k", 8, "number of clusters")
		seed    = flag.Int64("seed", 1, "clustering seed")
		metrics = flag.Bool("metrics", false, "expose /metrics, /debug/vars, /debug/trace and /debug/pprof")
		retries = flag.Int("retries", 3, "backlink query attempts, backoff between them (0 disables the resilience wrapper)")
		budget  = flag.Int("backlink-budget", 0, "total backlink query budget, retries included (0 = unlimited)")
		// Chaos knob for the check.sh smoke: the in-process backlink
		// service dies permanently after N answered queries, so startup
		// exercises the breaker-trip + degraded-hub path end to end.
		outageAfter = flag.Int("backlink-outage-after", -1, "kill the backlink service after N queries (-1 = never; testing aid)")

		// Live-mode flags (see runLive).
		live = flag.Bool("live", false, "streaming mode: POST /ingest grows the directory while it serves")
		data = flag.String("data", "", "durable state dir for -live (WAL + snapshots); recovery wins over -in")
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
		reqlog        = flag.Bool("reqlog", false, "structured JSON request logs on stderr (live mode)")
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
	case "", "leader", "follower":
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
		role:          *role,
	}

	if *role == "follower" {
		if *leader == "" || *data == "" {
			log.Fatal("-role follower requires -leader and -data")
		}
		sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		err := runFollower(followerParams{
			liveParams: lp,
			leader:     strings.TrimRight(*leader, "/"),
			maxLag:     *maxLag,
			poll:       *replPoll,
		}, reg, ring, tracer, sigCtx)
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	if *live || *role == "leader" {
		if *role == "leader" && *data == "" {
			log.Fatal("-role leader requires -data (followers bootstrap from its WAL)")
		}
		sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		if err := runLive(lp, reg, ring, tracer, sigCtx); err != nil {
			log.Fatal(err)
		}
		return
	}

	ctx, span := obs.Start(ctx, "startup")

	_, loadSpan := obs.Start(ctx, "load")
	d, err := dataset.Load(*in)
	if err != nil {
		log.Fatal(err)
	}
	c := d.Corpus()
	var docs []cafc.Document
	html := make(map[string]string, len(c.FormPages))
	for _, u := range c.FormPages {
		docs = append(docs, cafc.Document{URL: u, HTML: c.ByURL[u].HTML})
		html[u] = c.ByURL[u].HTML
	}
	opts := cafc.Options{SkipNonSearchable: true, Metrics: reg}
	if *retries > 0 {
		opts.Retry = &cafc.Retry{MaxAttempts: *retries, Budget: *budget, Seed: *seed}
	}
	corpus, err := cafc.NewCorpus(docs, opts)
	if err != nil {
		log.Fatal(err)
	}
	loadSpan.SetAttr(obs.Int("form_pages", corpus.Len()))
	loadSpan.End()

	_, clusterSpan := obs.Start(ctx, "cluster")
	g := webgraph.FromCorpus(c)
	svc := webgraph.NewBacklinkService(g, 100, 0, *seed)
	svc.Metrics = reg
	backlinks := svc.Backlinks
	if *outageAfter >= 0 {
		var calls int
		inner := backlinks
		backlinks = func(u string) ([]string, error) {
			if calls++; calls > *outageAfter {
				svc.SetUnavailable(true)
			}
			return inner(u)
		}
	}
	cl := corpus.ClusterCH(*k, backlinks, c.RootOf, *seed)
	if cl.Degraded != "" {
		log.Printf("clustering degraded: %s (hub evidence partial, shortfall seeded randomly)", cl.Degraded)
	}
	clusterSpan.SetAttr(obs.Int("k", *k))
	clusterSpan.End()

	if *metrics {
		probeFetchHealth(ctx, c, reg)
	}

	labels := make([]string, len(cl.Clusters))
	for i, terms := range cl.TopTerms {
		labels[i] = strings.Join(terms, " ")
	}
	srv := directory.Build(cl.Clusters, labels, html)

	var handler http.Handler = srv.Handler()
	if *metrics {
		mux := obs.DebugMux(reg, ring, true)
		mux.Handle("/", obs.InstrumentHandler(reg, handler))
		handler = mux
	}
	// Static mode is ready as soon as it serves (the model was built
	// before the listener opened); live mode gates /healthz on epoch >= 1.
	root := http.NewServeMux()
	root.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	root.Handle("/", handler)
	handler = root

	// Listen before constructing the server so -addr :0 resolves to a
	// real port we can print (scripts parse this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	span.End()
	fmt.Printf("serving %d databases in %d clusters on http://%s/\n", corpus.Len(), *k, ln.Addr())
	if *metrics {
		fmt.Printf("metrics on http://%s/metrics, profiles on http://%s/debug/pprof/\n", ln.Addr(), ln.Addr())
	}

	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		// Generous write timeout: /debug/pprof/profile streams for 30s by
		// default and /debug/pprof/trace can run longer.
		WriteTimeout: 120 * time.Second,
		IdleTimeout:  60 * time.Second,
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-sigCtx.Done():
	}
	stop()
	log.Print("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}

// probeFetchHealth exercises the crawler's fetch path over real loopback
// HTTP against the loaded corpus — one fetch per form page — so the
// fetch-latency and status metrics are populated from first scrape, the
// way a periodic health probe would in a long-running deployment.
func probeFetchHealth(ctx context.Context, c *webgen.Corpus, reg *obs.Registry) {
	if len(c.FormPages) == 0 {
		return
	}
	_, span := obs.Start(ctx, "fetch_probe")
	defer span.End()
	ts, client := crawler.ServeCorpus(c)
	defer ts.Close()
	cr := &crawler.Crawler{
		Fetcher: &crawler.RetryFetcher{
			Fetcher: &crawler.HTTPFetcher{Client: client},
			Policy:  retry.Policy{Timeout: 5 * time.Second},
			Breaker: retry.NewBreaker(5, 30*time.Second, nil, reg, "fetch"),
			Metrics: reg,
		},
		Config: crawler.Config{MaxPages: len(c.FormPages), MaxDepth: 1, Metrics: reg},
	}
	pages := cr.Crawl(c.FormPages)
	span.SetAttr(obs.Int("pages", len(pages)))
}
