package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"cafc"
	"cafc/internal/stream"
)

// TestRecoveredLeaderServesFollowerBytes pins replay at the serving
// surface. A leader crashed after one-page and multi-page records, a
// forced rebuild and a skipped page is recovered through startLive,
// which publishes only the recovered epoch. A follower on the same
// genesis snapshot applies the WAL tail frame by frame, publishing every
// epoch. Both must serve the same browse pages, /search and /classify
// bodies, and the same silhouette.
func TestRecoveredLeaderServesFollowerBytes(t *testing.T) {
	docs := genCorpus(t, 61, 48)
	const k, seed = 4, 5
	opts := cafc.Options{SkipNonSearchable: true}
	// The live config startLive builds for -k 4 -seed 5 -batch 8 -flush 5ms.
	liveCfg := func(dir string, ls *liveServer) cafc.LiveConfig {
		return cafc.LiveConfig{
			K: k, Seed: seed, BatchSize: 8, FlushInterval: 5 * time.Millisecond, Dir: dir,
			OnPublish: ls.onPublish,
			Quality:   &cafc.QualityConfig{Seed: seed},
			Search:    &cafc.SearchConfig{},
		}
	}

	ldir := t.TempDir()
	genesis := docs[:20]
	corpus, err := cafc.NewCorpus(genesis, opts)
	if err != nil {
		t.Fatal(err)
	}
	lls := &liveServer{}
	leader, err := cafc.NewLive(corpus, genesis, corpus.ClusterC(k, seed), liveCfg(ldir, lls), opts)
	if err != nil {
		t.Fatal(err)
	}
	lls.live = leader
	ingest := func(batch ...cafc.Document) {
		t.Helper()
		want := leader.Status().Ingested + leader.Status().Skipped + int64(len(batch))
		for _, d := range batch {
			if err := leader.Ingest(d); err != nil {
				t.Fatal(err)
			}
		}
		waitServe(t, "batch applied", func() bool {
			s := leader.Status()
			return s.Ingested+s.Skipped == want
		})
	}
	for _, d := range docs[20:26] {
		ingest(d)
	}
	ingest(docs[26:32]...)
	if err := leader.ForceRebuild(); err != nil {
		t.Fatal(err)
	}
	waitServe(t, "forced rebuild", func() bool { return leader.Status().Rebuilds == 1 })
	ingest(cafc.Document{URL: "http://formless.example/", HTML: "<html><body><p>no form</p></body></html>"})
	for _, d := range docs[32:40] {
		ingest(d)
	}
	crashed := leader.Status()
	leader.Close() // crash: no final snapshot, so recovery replays the tail

	rls, err := startLive(context.Background(), liveParams{data: ldir, k: k, seed: seed, batch: 8, flush: 5 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rls.live.Close()
	if s := rls.live.Status(); s.Epoch != crashed.Epoch || s.Pages != 40 {
		t.Fatalf("recovered epoch %d with %d pages, the leader crashed at %d with 40", s.Epoch, s.Pages, crashed.Epoch)
	}
	if h := rls.live.QualityHistory(); len(h) != 1 || h[0].Epoch != crashed.Epoch {
		t.Fatalf("recovered quality history has %d entries; want only the recovered epoch", len(h))
	}
	// /status says what the restart restored.
	sr := httptest.NewRecorder()
	rls.mux().ServeHTTP(sr, httptest.NewRequest(http.MethodGet, "/status", nil))
	var rst cafc.LiveStatus
	if err := json.Unmarshal(sr.Body.Bytes(), &rst); err != nil {
		t.Fatal(err)
	}
	if r := rst.Recovery; r == nil || r.SnapshotVersion != 3 || r.SnapshotBytes <= 0 || r.Partition != "restored" || r.Reason != "" {
		t.Fatalf("/status Recovery = %+v, want a restored v3 snapshot", r)
	}

	// The follower starts from the leader's genesis snapshot and the WAL
	// prefix it covers, then applies every later frame on its own.
	frames, _, err := stream.TailWAL(ldir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := stream.OpenSnapshotAt(ldir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := cafc.LoadSnapshot(bytes.NewReader(snap), opts)
	if err != nil {
		t.Fatal(err)
	}
	off := int(info.WALOffset)
	if off != 1 || len(frames) != int(crashed.WALRecords) {
		t.Fatalf("snapshot at WAL offset %d of %d records; want the genesis snapshot of %d", off, len(frames), crashed.WALRecords)
	}
	fdir := t.TempDir()
	st, err := stream.Open(fdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[:off] {
		if err := st.AppendFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot(func(w io.Writer) error { _, err := w.Write(snap); return err }); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fls := &liveServer{}
	follower, err := cafc.RecoverFollower(liveCfg(fdir, fls), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fls.live = follower
	for _, f := range frames[off:] {
		if err := follower.ApplyFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := follower.AppliedEpoch(); got != crashed.Epoch {
		t.Fatalf("follower at epoch %d, want %d", got, crashed.Epoch)
	}
	if n := len(follower.QualityHistory()); n != len(frames)-off+1 {
		t.Fatalf("follower quality history has %d entries; want one per epoch it published", n)
	}

	serve := func(ls *liveServer, method, path string, payload []byte) string {
		t.Helper()
		rec := httptest.NewRecorder()
		ls.mux().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(payload)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s = %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	type request struct {
		method, path string
		payload      []byte
	}
	var reqs []request
	for _, p := range browsePaths(k) {
		reqs = append(reqs, request{http.MethodGet, p, nil})
	}
	for _, q := range []string{"hotel+rooms", "cheap+flights", "search+jobs", "title", "car"} {
		reqs = append(reqs, request{http.MethodGet, fmt.Sprintf("/search?q=%s&k=20", q), nil})
	}
	for _, d := range append(docs[:6:6], docs[40:]...) {
		payload, _ := json.Marshal(map[string]string{"url": d.URL, "html": d.HTML})
		reqs = append(reqs, request{http.MethodPost, "/classify", payload})
	}
	for _, r := range reqs {
		if got, want := serve(rls, r.method, r.path, r.payload), serve(fls, r.method, r.path, r.payload); got != want {
			t.Fatalf("%s %s: the recovered leader serves\n%s\nthe follower\n%s", r.method, r.path, got, want)
		}
	}

	rq, rok := rls.live.Quality()
	fq, fok := follower.Quality()
	if !rok || !fok || math.Float64bits(rq.Silhouette) != math.Float64bits(fq.Silhouette) {
		t.Fatalf("silhouette %v (ok %v) recovered, %v (ok %v) on the follower", rq.Silhouette, rok, fq.Silhouette, fok)
	}
}

// TestLogRecovery pins the recovery log line: what the restart read and
// whether the partition came back as served or was re-clustered.
func TestLogRecovery(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	log.SetFlags(0)
	defer func() {
		log.SetOutput(os.Stderr)
		log.SetFlags(log.LstdFlags)
	}()
	st := cafc.LiveStatus{Epoch: 7, Pages: 120, WALRecords: 7}
	logRecovery(st, 250*time.Millisecond)
	st.Recovery = &cafc.RecoveryInfo{SnapshotVersion: 3, SnapshotBytes: 4096, Partition: "restored"}
	logRecovery(st, 250*time.Millisecond)
	st.Recovery = &cafc.RecoveryInfo{SnapshotVersion: 3, SnapshotBytes: 9000, Partition: "re-clustered",
		Reason: "snapshot has k=1, configured k=8"}
	logRecovery(st, 250*time.Millisecond)
	want := "recovered epoch 7 (120 pages, 7 WAL records) in 0.25s from no snapshot\n" +
		"recovered epoch 7 (120 pages, 7 WAL records) in 0.25s from snapshot v3 (4096 bytes), partition restored\n" +
		"recovered epoch 7 (120 pages, 7 WAL records) in 0.25s from snapshot v3 (9000 bytes), partition re-clustered: snapshot has k=1, configured k=8\n"
	if got := buf.String(); got != want {
		t.Fatalf("log lines:\n%s\nwant:\n%s", got, want)
	}
}
