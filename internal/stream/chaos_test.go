package stream

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cafc/internal/fault"
	"cafc/internal/obs"
	"cafc/internal/webgen"
)

// TestIngestUnderFaultyFetch feeds the pipeline from a flaky document
// source: ~20% of fetches fail with injected errors. The stream must
// absorb every successful fetch and publish a consistent epoch — a
// lossy crawler is the normal operating mode for a live directory, not
// an exception.
func TestIngestUnderFaultyFetch(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 13, FormPages: 40})
	in := fault.New(fault.Plan{Seed: 13, ErrorRate: 0.2}, nil)
	fetch := in.WrapFetch(func(u string) (string, error) {
		return c.ByURL[u].HTML, nil
	})

	l := syncLive(Config{K: 4, Seed: 2})
	fetched := 0
	for _, u := range c.FormPages {
		html, err := fetch(u)
		if err != nil {
			continue // the crawler would retry or skip; the stream never sees it
		}
		fetched++
		l.apply(Record{Docs: []Doc{{URL: u, HTML: html}}}, false)
	}
	st := in.Stats()
	if st.Errors == 0 {
		t.Fatalf("fault plan injected nothing (stats %+v) — test is vacuous", st)
	}
	if fetched+st.Errors != len(c.FormPages) {
		t.Fatalf("accounting: %d fetched + %d failed != %d", fetched, st.Errors, len(c.FormPages))
	}
	e := l.cur.Load()
	if e == nil || e.Model.Len() != fetched {
		t.Fatalf("epoch pages = %v, want %d (every successful fetch)", e, fetched)
	}
	if int(e.Seq) != fetched {
		t.Errorf("epoch seq = %d, want %d (one record per applied doc)", e.Seq, fetched)
	}
	if len(e.Result.Assign) != fetched {
		t.Errorf("assignments = %d, want %d", len(e.Result.Assign), fetched)
	}
}

// TestWALFailureDegrades kills the WAL under a live pipeline: appends
// fail, the failure is counted, and the stream keeps applying batches in
// memory — durability degrades, serving does not.
func TestWALFailureDegrades(t *testing.T) {
	docs := genDocs(t, 14, 16)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l := syncLive(Config{K: 2, Seed: 1, Store: s, Metrics: reg})
	l.apply(Record{Docs: docs[:8]}, false)
	if got := l.cur.Load(); got == nil || got.Seq != 1 {
		t.Fatalf("healthy WAL batch should publish epoch 1")
	}

	s.Close() // the disk goes away

	l.apply(Record{Docs: docs[8:]}, false)
	e := l.cur.Load()
	if e == nil || e.Seq != 2 || e.Model.Len() != len(docs) {
		t.Fatalf("WAL death must not stop publishing: %+v", l.Status())
	}
	if l.walErrors.Load() != 1 {
		t.Errorf("walErrors = %d, want 1", l.walErrors.Load())
	}
	if got := obsCounter(t, reg, "stream_wal_errors_total"); got != 1 {
		t.Errorf("stream_wal_errors_total = %v, want 1", got)
	}

	// Recovery from the surviving WAL prefix still works: it replays the
	// first batch (the durable history).
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("surviving WAL records = %d, want 1", len(recs))
	}
	l2 := New(Config{K: 2, Seed: 1}, nil, recs)
	defer l2.Close()
	if got := l2.Current(); got == nil || got.Model.Len() != 8 {
		t.Errorf("recovery from surviving prefix failed: %+v", got)
	}
	if err := s.Append(Record{}); err == nil {
		t.Errorf("append on closed store must error")
	}
}

// TestSnapshotFailureIsNotWALError: a snapshot that cannot be written
// loses nothing — the WAL is flushed first and recovery replays it — so
// both periodic checkpoints and the final snapshot on Drain count only
// in stream_snapshot_errors_total, never in Status.WALErrors, on worker
// and manual pipelines alike.
func TestSnapshotFailureIsNotWALError(t *testing.T) {
	docs := genDocs(t, 15, 12)
	errSnap := errors.New("snapshot disk full")
	for _, manual := range []bool{false, true} {
		reg := obs.NewRegistry()
		var attempts atomic.Int64 // the worker goroutine calls SaveSnapshot
		cfg := Config{
			K: 2, Seed: 1, BatchSize: 4, FlushInterval: time.Hour, Metrics: reg,
			SnapshotEvery: 1,
			SaveSnapshot: func(*Epoch) error {
				attempts.Add(1)
				return errSnap
			},
		}
		var l *Live
		if manual {
			l = NewManual(cfg, nil, nil)
			for i := 0; i < len(docs); i += 4 {
				if err := l.Apply(Record{Docs: docs[i : i+4]}); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			l = New(cfg, nil, nil)
			for _, d := range docs {
				if err := l.Ingest(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := l.Drain(ctx)
		cancel()
		if manual && !errors.Is(err, errSnap) || !manual && err != nil {
			t.Fatalf("manual=%v: Drain = %v", manual, err)
		}
		if e := l.Current(); e == nil || e.Model.Len() != len(docs) {
			t.Fatalf("manual=%v: drain lost docs: %+v", manual, l.Status())
		}
		// Three batch checkpoints plus the final snapshot.
		n := attempts.Load()
		if n != 4 {
			t.Errorf("manual=%v: %d snapshot attempts, want 4", manual, n)
		}
		if got := l.Status().WALErrors; got != 0 {
			t.Errorf("manual=%v: WALErrors = %d after snapshot-only failures, want 0", manual, got)
		}
		if got := obsCounter(t, reg, "stream_snapshot_errors_total"); got != float64(n) {
			t.Errorf("manual=%v: stream_snapshot_errors_total = %v, want %d", manual, got, n)
		}
	}
}
