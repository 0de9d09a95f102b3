// Follower mode: a read-only replica of a leader directoryd. It
// bootstraps its state dir from the leader's snapshot + WAL, tails the
// replication feed with backoff, and applies each frame through the
// same epoch-versioned publish path a leader uses — so /classify,
// /debug/quality and the browse UI serve from a model that is
// bit-identical to a leader recovered at the same epoch. Writes are not
// accepted locally: POST /ingest is forwarded to the leader (503 when
// it is unreachable), and /healthz degrades once replication lag
// exceeds the -max-lag threshold.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"cafc"
	"cafc/internal/obs"
	"cafc/internal/repl"
)

// followerParams carries the parsed flags into follower mode.
type followerParams struct {
	liveParams
	leader string
	maxLag int64
	poll   time.Duration
}

// followerServer reuses liveServer's read-side handlers (classify,
// quality, UI — they only touch the published epoch) and overrides the
// write and health surface.
type followerServer struct {
	*liveServer
	leader string
	maxLag int64
	// lag and applied are injected as closures (backed by the tailer in
	// production) so staleness tests can drive them directly.
	lag     func() int64
	applied func() int64
	client  *http.Client
	// reg counts the writes forwarded to the leader (nil-safe).
	reg *obs.Registry
}

// handleIngest forwards the write to the leader — a follower never
// grows its own WAL except through replication, or the "byte-identical
// prefix" invariant would fork.
func (fs *followerServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if fs.leader == "" {
		healthErr(w, "read-only", "follower has no leader to forward writes to")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := fs.client.Post(fs.leader+"/ingest", r.Header.Get("Content-Type"), bytes.NewReader(body))
	if err != nil {
		fs.reg.Counter("replication_forward_errors_total").Inc()
		healthErr(w, "leader-unreachable", err.Error())
		return
	}
	defer resp.Body.Close()
	fs.reg.Counter("replication_forwarded_writes_total").Inc()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleHealthz is the follower readiness probe: 503 while cold, 503
// "stale" with a JSON reason once replication lag passes the threshold
// — the signal a load balancer uses to stop sending reads here.
func (fs *followerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if fs.live.Epoch() == nil {
		healthErr(w, "cold", "no epoch replicated yet")
		return
	}
	if lag := fs.lag(); lag > fs.maxLag {
		healthErr(w, "stale", fmt.Sprintf("replication lag %d epochs exceeds max %d", lag, fs.maxLag))
		return
	}
	io.WriteString(w, "ok\n")
}

// followerStatus embeds the live pipeline status and adds the
// replication view.
type followerStatus struct {
	cafc.LiveStatus
	Role                    string
	Leader                  string
	ReplicationAppliedEpoch int64
	ReplicationLagEpochs    int64
}

func (fs *followerServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(followerStatus{
		LiveStatus:              fs.live.Status(),
		Role:                    "follower",
		Leader:                  fs.leader,
		ReplicationAppliedEpoch: fs.applied(),
		ReplicationLagEpochs:    fs.lag(),
	})
}

func (fs *followerServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", fs.handleIngest)
	mux.HandleFunc("/status", fs.handleStatus)
	mux.HandleFunc("/healthz", fs.handleHealthz)
	mux.HandleFunc("/classify", withSLO(fs.sloClassify, fs.liveServer.handleClassify))
	// Search serves locally from the replicated index — followers scale
	// the read path, and a follower at epoch E answers byte-identically
	// to the leader at E.
	mux.HandleFunc("/search", fs.liveServer.handleSearch)
	mux.HandleFunc("/debug/quality", fs.handleQuality)
	mux.HandleFunc("/", fs.handleUI)
	return mux
}

// runFollower is follower-mode main: bootstrap the state dir from the
// leader, recover a read-only pipeline from it, tail the replication
// feed in the background, and serve until ctx ends. With a tracer in
// ctx, "bootstrap" and "recover" spans record the startup.
func runFollower(ctx context.Context, p followerParams, reg *obs.Registry, ring *obs.RingSink, tracer *obs.Tracer) error {
	if err := checkK(p.k); err != nil {
		return err
	}
	sctx, span := obs.Start(ctx, "startup")
	client := &repl.Client{Base: p.leader, HTTP: &http.Client{Timeout: 30 * time.Second}}
	log.Printf("bootstrapping follower state in %s from %s", p.data, p.leader)
	_, bspan := obs.Start(sctx, "bootstrap")
	err := repl.Bootstrap(ctx, client, p.data)
	bspan.End()
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}

	ls := &liveServer{}
	ls.sloClassify = obs.NewSLO(reg, "classify", p.sloClassifyMS/1000, 0)
	opts := cafc.Options{SkipNonSearchable: true, Metrics: reg}
	cfg := cafc.LiveConfig{
		K:              p.k,
		Seed:           p.seed,
		DriftThreshold: p.drift,
		Dir:            p.data,
		SnapshotEvery:  p.snapshotEvery,
		// Followers shard parse/embed like the leader (epochs are
		// worker-count-independent) but never group-commit: their durable
		// record count is the replication resume offset.
		IngestWorkers: p.ingestWorkers,
		OnPublish:     ls.onPublish,
		Quality:       &cafc.QualityConfig{Seed: p.seed},
		Search:        &cafc.SearchConfig{},
	}
	_, rspan := obs.Start(sctx, "recover")
	t0 := time.Now()
	live, err := cafc.RecoverFollower(cfg, opts)
	rspan.End()
	if err != nil {
		return err
	}
	span.End()
	logRecovery(live.Status(), time.Since(t0))
	ls.live = live

	tailer := &repl.Tailer{Source: client, Target: live, Interval: p.poll, Metrics: reg}
	fs := &followerServer{
		liveServer: ls,
		leader:     p.leader,
		maxLag:     p.maxLag,
		lag:        tailer.Lag,
		applied:    live.AppliedEpoch,
		client:     &http.Client{Timeout: 30 * time.Second},
		reg:        reg,
	}
	tailCtx, stopTail := context.WithCancel(context.Background())
	defer stopTail()
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		tailer.Run(tailCtx)
	}()
	// The tail appends to the state dir Drain closes, so it stops first,
	// within the shutdown deadline: it finishes applying the frames it
	// has fetched, and any of them can re-cluster.
	stop := func(ctx context.Context) error {
		log.Print("stopping replication tail")
		stopTail()
		select {
		case <-tailDone:
		case <-ctx.Done():
			return ctx.Err()
		}
		return live.Drain(ctx)
	}
	banner := fmt.Sprintf("follower directory (%s, leader %s)", epochMode(live), p.leader)
	return serve(ctx, p.liveParams, reg, ring, tracer, fs.mux(), banner, stop)
}
