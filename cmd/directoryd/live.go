// The live directory: directoryd grows its directory while serving it.
// Documents arrive over POST /ingest into the bounded stream queue; each
// published epoch atomically swaps in a freshly built directory UI, so
// browsing, search and classification never block on (or observe a
// half-built) model.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cafc"
	"cafc/internal/dataset"
	"cafc/internal/directory"
	"cafc/internal/obs"
	"cafc/internal/repl"
	"cafc/internal/stream"
	"cafc/internal/webgraph"
)

// liveParams carries the parsed flags into the directory.
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
	// outageAt, when positive, is the genesis backlink query at which the
	// in-process backlink service dies for good: -backlink-outage-after N
	// sets N+1, so the zero value keeps the service up.
	outageAt int
	// role is "" (standalone) or "leader" (also serve /repl/*).
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
	body, cached, err := ls.live.SearchJSON(q, k)
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
	w.Write(body)
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
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
// saturation, the state in which the directory is up but
// load-shedding. Readiness describes the server as it is now: a
// backlink breaker that opened during genesis guards no later work, so
// it shows in the "genesis clustering degraded" log line and in
// degraded_runs_total, not here.
func (ls *liveServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if ls.live.Epoch() == nil {
		healthErr(w, "cold", "no epoch published yet")
		return
	}
	if reason, degraded := healthProblem(ls.live.Status()); degraded {
		healthErr(w, "degraded", reason)
		return
	}
	io.WriteString(w, "ok\n")
}

// healthProblem decides degradation from the pipeline status: an ingest
// queue at >= 90% of capacity (admissions about to bounce with 429s).
func healthProblem(s cafc.LiveStatus) (string, bool) {
	if s.QueueCap > 0 {
		if sat := float64(s.QueueDepth) / float64(s.QueueCap); sat >= 0.9 {
			return fmt.Sprintf("ingest queue %d%% full (%d/%d)", int(sat*100), s.QueueDepth, s.QueueCap), true
		}
	}
	return "", false
}

func healthErr(w http.ResponseWriter, status, reason string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]string{"status": status, "reason": reason})
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
	req, err := readDoc(w, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p, ok, err := e.Classify(cafc.Document{URL: req.URL, HTML: req.HTML})
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(classifyAnswer{
		Cluster:    p.Cluster,
		Epoch:      e.Epoch,
		Label:      p.Label,
		OK:         ok,
		Similarity: p.Similarity,
	})
}

// classifyAnswer is the /classify response body. Its fields are in
// sorted key order, so it encodes to the same bytes as a map of those
// keys, without the map or the boxed values.
type classifyAnswer struct {
	Cluster    int     `json:"cluster"`
	Epoch      int64   `json:"epoch"`
	Label      string  `json:"label"`
	OK         bool    `json:"ok"`
	Similarity float64 `json:"similarity"`
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
	mux.HandleFunc("/search", ls.handleSearch)
	mux.HandleFunc("/debug/quality", ls.handleQuality)
	mux.HandleFunc("/", ls.handleUI)
	return mux
}

// startLive builds the cafc.Live behind the server: recovery from an
// existing data dir wins; otherwise a dataset (when given) seeds the
// genesis epoch; otherwise the directory starts cold and the first
// ingested batch founds the model. With a tracer in ctx it records the
// phases as spans under one "startup" root: "load", "cluster" and
// "genesis" for a new directory, "recover" for a restart.
func startLive(ctx context.Context, p liveParams, reg *obs.Registry) (*liveServer, error) {
	if err := checkK(p.k); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "startup")
	defer span.End()
	ls := &liveServer{reg: reg}
	ls.sloClassify = obs.NewSLO(reg, "classify", p.sloClassifyMS/1000, 0)
	ls.sloIngest = obs.NewSLO(reg, "ingest", p.sloIngestMS/1000, 0)
	opts := cafc.Options{SkipNonSearchable: true, Metrics: reg}
	if p.retries > 0 {
		opts.Retry = &cafc.Retry{MaxAttempts: p.retries, Budget: p.budget, Seed: p.seed}
	}
	// The quality monitor is always on: the reservoir bounds its
	// per-epoch cost, and /debug/quality is the ops window into it.
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
		// Retrieval is always on: the index grows with each batch and
		// swaps with the classifier, so /search is never stale.
		Search: &cafc.SearchConfig{},
	}

	if p.data != "" && stream.HasState(p.data) {
		log.Printf("recovering live directory from %s", p.data)
		_, rspan := obs.Start(ctx, "recover")
		t0 := time.Now()
		live, err := cafc.RecoverLive(cfg, opts)
		rspan.End()
		if err != nil {
			return nil, err
		}
		logRecovery(live.Status(), time.Since(t0))
		ls.live = live
		return ls, nil
	}

	var (
		corpus *cafc.Corpus
		docs   []cafc.Document
		cl     *cafc.Clustering
	)
	if p.in != "" {
		_, loadSpan := obs.Start(ctx, "load")
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
		loadSpan.SetAttr(obs.Int("form_pages", corpus.Len()))
		loadSpan.End()

		_, clusterSpan := obs.Start(ctx, "cluster")
		g := webgraph.FromCorpus(c)
		svc := webgraph.NewBacklinkService(g, 100, 0, p.seed)
		svc.Metrics = reg
		backlinks := svc.Backlinks
		if p.outageAt > 0 {
			var calls int
			backlinks = func(u string) ([]string, error) {
				if calls++; calls >= p.outageAt {
					svc.SetUnavailable(true)
				}
				return svc.Backlinks(u)
			}
		}
		cl = corpus.ClusterCH(p.k, backlinks, c.RootOf, p.seed)
		if cl.Degraded != "" {
			log.Printf("genesis clustering degraded: %s", cl.Degraded)
		}
		clusterSpan.SetAttr(obs.Int("k", p.k))
		clusterSpan.End()
	}
	_, genesisSpan := obs.Start(ctx, "genesis")
	live, err := cafc.NewLive(corpus, docs, cl, cfg, opts)
	genesisSpan.End()
	if err != nil {
		return nil, err
	}
	ls.live = live
	return ls, nil
}

// logRecovery logs what a restart cost and what it restored, from the
// server alone: the snapshot read, and whether its partition came back
// as served or was re-clustered (and why). /status carries the same
// under Recovery.
func logRecovery(st cafc.LiveStatus, took time.Duration) {
	from := "no snapshot"
	if r := st.Recovery; r != nil && r.SnapshotVersion > 0 {
		from = fmt.Sprintf("snapshot v%d (%d bytes)", r.SnapshotVersion, r.SnapshotBytes)
		switch {
		case r.Reason != "":
			from += fmt.Sprintf(", partition %s: %s", r.Partition, r.Reason)
		case r.Partition != "":
			from += ", partition " + r.Partition
		}
	}
	log.Printf("recovered epoch %d (%d pages, %d WAL records) in %.2fs from %s",
		st.Epoch, st.Pages, st.WALRecords, took.Seconds(), from)
}

// epochMode names the epoch a directory starts serving, for its banner.
func epochMode(l *cafc.Live) string {
	if e := l.Epoch(); e != nil {
		return fmt.Sprintf("epoch %d, %d pages", e.Epoch, e.Corpus.Len())
	}
	return "cold"
}

// runLive runs a standalone or leader directory: start the pipeline,
// serve until ctx ends, then drain the stream (flushing the queue and
// writing the final snapshot).
func runLive(ctx context.Context, p liveParams, reg *obs.Registry, ring *obs.RingSink, tracer *obs.Tracer) error {
	ls, err := startLive(ctx, p, reg)
	if err != nil {
		return err
	}
	m := ls.mux()
	if p.role == "leader" {
		// The leader's replication feed reads the state dir directly, so
		// it serves the durable prefix even while the worker appends.
		(&repl.Server{Dir: p.data, Metrics: reg}).Register(m)
	}
	return serve(ctx, p, reg, ring, tracer, m, "live directory ("+epochMode(ls.live)+")", ls.live.Drain)
}
