// Live mode: directoryd grows its directory while serving it. Documents
// arrive over POST /ingest into the bounded stream queue; each published
// epoch atomically swaps in a freshly built directory UI, so browsing,
// search and classification never block on (or observe a half-built)
// model.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cafc"
	"cafc/internal/dataset"
	"cafc/internal/directory"
	"cafc/internal/obs"
	"cafc/internal/repl"
	"cafc/internal/retry"
	"cafc/internal/stream"
	"cafc/internal/webgraph"
)

// liveParams carries the parsed flags into live mode.
type liveParams struct {
	in            string
	addr          string
	data          string
	k             int
	seed          int64
	metrics       bool
	retries       int
	budget        int
	batch         int
	queue         int
	flush         time.Duration
	drift         float64
	snapshotEvery int
	ingestWorkers int
	groupCommit   int
	commitWindow  time.Duration
	sloClassifyMS float64
	sloIngestMS   float64
	reqlog        bool
	// role is "" (standalone live) or "leader" (also serve /repl/*).
	role string
}

// liveServer is the HTTP face of a cafc.Live: it holds the latest
// directory UI behind an atomic pointer (swapped on every epoch
// publish) and exposes the ingest/status/classify/health endpoints.
type liveServer struct {
	live *cafc.Live
	ui   atomic.Pointer[http.Handler]
	reg  *obs.Registry

	sloClassify *obs.SLO
	sloIngest   *obs.SLO
}

// onPublish serves a freshly published epoch's directory UI from the
// epoch's own search index and swaps it in, so the live config must set
// Search. It runs in the ingest worker goroutine; readers keep serving
// the previous UI until the store below.
func (ls *liveServer) onPublish(e *cafc.LiveEpoch) {
	h := directory.New(e.SearchIndex, uiLabels(e)).Handler()
	ls.ui.Store(&h)
}

// uiLabels names an epoch's clusters for the directory UI. The search
// index freezes before the epoch swap, so its discriminative labels ride
// on the epoch — they replace the raw top-term labels wherever available
// ("cluster 3" → named cluster).
func uiLabels(e *cafc.LiveEpoch) []string {
	labels := make([]string, len(e.Clustering.TopTerms))
	for i, terms := range e.Clustering.TopTerms {
		labels[i] = strings.Join(terms, " ")
		if i < len(e.SearchLabels) && e.SearchLabels[i] != "" {
			labels[i] = e.SearchLabels[i]
		}
	}
	return labels
}

// handleSearch is the JSON retrieval endpoint: ranked top-k hits with
// labeled dynamic facets from the current epoch's index. X-Cache
// reports HIT/MISS — the header rather than the body, so leader and
// follower responses stay byte-identical regardless of cache state.
func (ls *liveServer) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "q required", http.StatusBadRequest)
		return
	}
	k := 0
	if ks := r.URL.Query().Get("k"); ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil {
			http.Error(w, "k must be an integer", http.StatusBadRequest)
			return
		}
	}
	res, cached, err := ls.live.Search(q, k)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if cached {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	json.NewEncoder(w).Encode(res)
}

// ingestRequest is one POST /ingest payload element.
type ingestRequest struct {
	URL  string `json:"url"`
	HTML string `json:"html"`
}

func (ls *liveServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Accept a single {"url","html"} object or an array of them.
	var docs []ingestRequest
	if err := json.Unmarshal(body, &docs); err != nil {
		var one ingestRequest
		if err := json.Unmarshal(body, &one); err != nil {
			http.Error(w, "body must be {\"url\",\"html\"} or an array of them", http.StatusBadRequest)
			return
		}
		docs = []ingestRequest{one}
	}
	// Validate the whole body first: a bad element must not leave the
	// elements before it queued behind a 400.
	for _, d := range docs {
		if d.URL == "" {
			http.Error(w, "url required", http.StatusBadRequest)
			return
		}
	}
	queued := 0
	for _, d := range docs {
		if err := ls.live.Ingest(cafc.Document{URL: d.URL, HTML: d.HTML}); err != nil {
			status := http.StatusServiceUnavailable
			if errors.Is(err, cafc.ErrBacklog) {
				status = http.StatusTooManyRequests
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]any{"queued": queued, "error": err.Error()})
			return
		}
		queued++
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{"queued": queued})
}

func (ls *liveServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ls.live.Status())
}

// handleHealthz is the readiness probe: 503 while cold (no epoch), and
// 503 "degraded" with a JSON reason when the ingest queue is close to
// saturation or any circuit breaker is open — the two states in which
// the directory is up but load-shedding.
func (ls *liveServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if ls.live.Epoch() == nil {
		healthErr(w, "cold", "no epoch published yet")
		return
	}
	if reason, degraded := healthProblem(ls.live.Status(), ls.reg); degraded {
		healthErr(w, "degraded", reason)
		return
	}
	io.WriteString(w, "ok\n")
}

// healthProblem decides degradation from the pipeline status and the
// metrics registry: an ingest queue at >= 90% of capacity (admissions
// about to bounce with 429s) or any open circuit breaker.
func healthProblem(s cafc.LiveStatus, reg *obs.Registry) (string, bool) {
	if s.QueueCap > 0 {
		if sat := float64(s.QueueDepth) / float64(s.QueueCap); sat >= 0.9 {
			return fmt.Sprintf("ingest queue %d%% full (%d/%d)", int(sat*100), s.QueueDepth, s.QueueCap), true
		}
	}
	if name, open := openBreaker(reg); open {
		return fmt.Sprintf("circuit breaker %s open", name), true
	}
	return "", false
}

func healthErr(w http.ResponseWriter, status, reason string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]string{"status": status, "reason": reason})
}

// openBreaker scans the registry for any breaker_state gauge sitting at
// Open (2) and reports which component tripped.
func openBreaker(reg *obs.Registry) (string, bool) {
	if reg == nil {
		return "", false
	}
	for _, s := range reg.Snapshot() {
		if s.Name != "breaker_state" || s.Value != float64(retry.Open) {
			continue
		}
		for _, l := range s.Labels {
			if l.Key == "component" {
				return l.Value, true
			}
		}
		return "unknown", true
	}
	return "", false
}

// handleQuality serves the online quality monitor's snapshot ring: the
// latest measurement plus the retained history, oldest first.
func (ls *liveServer) handleQuality(w http.ResponseWriter, r *http.Request) {
	hist := ls.live.QualityHistory()
	if hist == nil {
		http.Error(w, "quality monitor not configured", http.StatusNotFound)
		return
	}
	latest, _ := ls.live.Quality()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"latest": latest, "history": hist})
}

// withSLO times a handler and feeds the wall-clock duration to the
// endpoint's SLO (nil SLO — no -metrics — runs the handler bare).
func withSLO(s *obs.SLO, h http.HandlerFunc) http.HandlerFunc {
	if s == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.Observe(time.Since(start).Seconds())
	}
}

func (ls *liveServer) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	e := ls.live.Epoch()
	if e == nil {
		http.Error(w, "cold: no epoch published yet", http.StatusServiceUnavailable)
		return
	}
	var req ingestRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p, ok, err := e.Classify(cafc.Document{URL: req.URL, HTML: req.HTML})
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"cluster":    p.Cluster,
		"label":      p.Label,
		"similarity": p.Similarity,
		"ok":         ok,
		"epoch":      e.Epoch,
	})
}

// handleUI serves the current epoch's directory pages, or 503 before the
// first epoch exists.
func (ls *liveServer) handleUI(w http.ResponseWriter, r *http.Request) {
	h := ls.ui.Load()
	if h == nil {
		http.Error(w, "cold: no epoch published yet", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, r)
}

func (ls *liveServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", withSLO(ls.sloIngest, ls.handleIngest))
	mux.HandleFunc("/status", ls.handleStatus)
	mux.HandleFunc("/healthz", ls.handleHealthz)
	mux.HandleFunc("/classify", withSLO(ls.sloClassify, ls.handleClassify))
	// The JSON search API shadows the directory UI's HTML /search page in
	// live mode; the HTML form lives on the static `serve` mode only.
	mux.HandleFunc("/search", ls.handleSearch)
	mux.HandleFunc("/debug/quality", ls.handleQuality)
	mux.HandleFunc("/", ls.handleUI)
	return mux
}

// startLive builds the cafc.Live behind the server: recovery from an
// existing data dir wins; otherwise a dataset (when given) seeds the
// genesis epoch; otherwise the directory starts cold and the first
// ingested batch founds the model.
func startLive(p liveParams, reg *obs.Registry) (*liveServer, error) {
	ls := &liveServer{reg: reg}
	ls.sloClassify = obs.NewSLO(reg, "classify", p.sloClassifyMS/1000, 0)
	ls.sloIngest = obs.NewSLO(reg, "ingest", p.sloIngestMS/1000, 0)
	opts := cafc.Options{SkipNonSearchable: true, Metrics: reg}
	if p.retries > 0 {
		opts.Retry = &cafc.Retry{MaxAttempts: p.retries, Budget: p.budget, Seed: p.seed}
	}
	// The quality monitor is always on in live mode: the reservoir bounds
	// its per-epoch cost, and /debug/quality is the ops window into it.
	// Gold labels (when the genesis dataset carries them) arrive below.
	qcfg := &cafc.QualityConfig{Seed: p.seed}
	cfg := cafc.LiveConfig{
		K:              p.k,
		Seed:           p.seed,
		QueueSize:      p.queue,
		BatchSize:      p.batch,
		FlushInterval:  p.flush,
		DriftThreshold: p.drift,
		Dir:            p.data,
		SnapshotEvery:  p.snapshotEvery,
		IngestWorkers:  p.ingestWorkers,
		GroupCommit:    p.groupCommit,
		CommitWindow:   p.commitWindow,
		OnPublish:      ls.onPublish,
		Quality:        qcfg,
		// Retrieval is always on in live mode: the index grows with each
		// batch and swaps with the classifier, so /search is never stale.
		Search: &cafc.SearchConfig{},
	}

	if p.data != "" && stream.HasState(p.data) {
		log.Printf("recovering live directory from %s", p.data)
		t0 := time.Now()
		live, err := cafc.RecoverLive(cfg, opts)
		if err != nil {
			return nil, err
		}
		// What the restart cost, from the server alone.
		st := live.Status()
		log.Printf("recovered epoch %d (%d pages, %d WAL records) in %.2fs",
			st.Epoch, st.Pages, st.WALRecords, time.Since(t0).Seconds())
		ls.live = live
		return ls, nil
	}

	var (
		corpus *cafc.Corpus
		docs   []cafc.Document
		cl     *cafc.Clustering
	)
	if p.in != "" {
		d, err := dataset.Load(p.in)
		if err != nil {
			return nil, err
		}
		c := d.Corpus()
		for _, u := range c.FormPages {
			docs = append(docs, cafc.Document{URL: u, HTML: c.ByURL[u].HTML})
		}
		if len(c.Labels) > 0 {
			qcfg.Labels = make(map[string]string, len(c.Labels))
			for u, dom := range c.Labels {
				qcfg.Labels[u] = string(dom)
			}
		}
		corpus, err = cafc.NewCorpus(docs, opts)
		if err != nil {
			return nil, err
		}
		g := webgraph.FromCorpus(c)
		svc := webgraph.NewBacklinkService(g, 100, 0, p.seed)
		svc.Metrics = reg
		cl = corpus.ClusterCH(p.k, svc.Backlinks, c.RootOf, p.seed)
		if cl.Degraded != "" {
			log.Printf("genesis clustering degraded: %s", cl.Degraded)
		}
	}
	live, err := cafc.NewLive(corpus, docs, cl, cfg, opts)
	if err != nil {
		return nil, err
	}
	ls.live = live
	return ls, nil
}

// runLive is live-mode main: start the pipeline, serve until a signal,
// then stop HTTP intake and drain the stream (flushing the queue and
// writing the final snapshot).
func runLive(p liveParams, reg *obs.Registry, ring *obs.RingSink, tracer *obs.Tracer, sigCtx context.Context) error {
	ls, err := startLive(p, reg)
	if err != nil {
		return err
	}

	m := ls.mux()
	if p.role == "leader" {
		// The leader's replication feed reads the state dir directly, so
		// it serves the durable prefix even while the worker appends.
		(&repl.Server{Dir: p.data, Metrics: reg}).Register(m)
	}
	var handler http.Handler = m
	if p.metrics {
		dm := obs.DebugMux(reg, ring, true)
		dm.Handle("/", obs.InstrumentHandler(reg, handler))
		handler = dm
	}
	if p.reqlog {
		logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
		handler = obs.RequestLogger(logger, tracer, handler)
	}

	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return err
	}
	mode := "cold"
	if e := ls.live.Epoch(); e != nil {
		mode = fmt.Sprintf("epoch %d, %d pages", e.Epoch, e.Corpus.Len())
	}
	fmt.Printf("live directory (%s) on http://%s/\n", mode, ln.Addr())
	if p.metrics {
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}

	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      120 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-sigCtx.Done():
	}
	log.Print("draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := ls.live.Drain(shutCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Print("drained")
	return nil
}
