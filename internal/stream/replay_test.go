package stream

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"cafc/internal/obs"
)

// formlessDocs returns n pages with no searchable form: the pipeline
// skips every one, so a record of them changes no model.
func formlessDocs(n int) []Doc {
	docs := make([]Doc, n)
	for i := range docs {
		docs[i] = Doc{
			URL:  fmt.Sprintf("http://formless.example/%d", i),
			HTML: "<html><head><title>about us</title></head><body><p>no query interface here</p></body></html>",
		}
	}
	return docs
}

// replayRecords is a WAL history with every kind of record replay has
// to reproduce: multi-page and one-page batches, a forced-rebuild
// marker and a record whose pages are all skipped. docs[:12] is the
// founding batch.
func replayRecords(docs []Doc) []Record {
	recs := []Record{{Docs: docs[:12]}}
	for _, d := range docs[12:16] {
		recs = append(recs, Record{Docs: []Doc{d}})
	}
	recs = append(recs,
		Record{Docs: docs[16:22]},
		Record{}, // forced rebuild marker
		Record{Docs: []Doc{docs[22]}},
		Record{Docs: formlessDocs(3)},
		Record{Docs: []Doc{docs[23]}},
		Record{Docs: docs[24:28]},
		Record{Docs: []Doc{docs[28]}},
		Record{Docs: []Doc{docs[29]}},
	)
	return recs
}

// assertSamePipeline compares two pipelines' current epochs and the
// decisions that produced them: epoch and WAL accounting, the rebuilt
// flag, the assignment, the centroid and page-vector bits, the admitted
// documents, the last drift fraction's bits and the counters.
func assertSamePipeline(t *testing.T, what string, got, want *Live) {
	t.Helper()
	g, w := got.Current(), want.Current()
	if g == nil || w == nil {
		t.Fatalf("%s: epochs %v and %v", what, g, w)
	}
	if g.Seq != w.Seq || g.WALRecords != w.WALRecords || g.Rebuilt != w.Rebuilt {
		t.Fatalf("%s: epoch %d (%d WAL records, rebuilt %v), want %d (%d, %v)",
			what, g.Seq, g.WALRecords, g.Rebuilt, w.Seq, w.WALRecords, w.Rebuilt)
	}
	if !reflect.DeepEqual(g.Result.Assign, w.Result.Assign) || g.Result.K != w.Result.K {
		t.Fatalf("%s: assignment differs", what)
	}
	if !reflect.DeepEqual(g.Result.Centroids, w.Result.Centroids) {
		t.Fatalf("%s: centroid bits differ", what)
	}
	if !reflect.DeepEqual(g.Docs, w.Docs) || g.Model.Len() != w.Model.Len() {
		t.Fatalf("%s: admitted documents differ", what)
	}
	for i := 0; i < w.Model.Len(); i++ {
		if !reflect.DeepEqual(g.Model.Point(i), w.Model.Point(i)) {
			t.Fatalf("%s: page %d vector bits differ", what, i)
		}
	}
	if gd, wd := got.driftBits.Load(), want.driftBits.Load(); gd != wd {
		t.Fatalf("%s: drift fraction %v, want %v", what, math.Float64frombits(gd), math.Float64frombits(wd))
	}
	gs, ws := got.Status(), want.Status()
	if gs.Rebuilds != ws.Rebuilds || gs.Batches != ws.Batches || gs.Ingested != ws.Ingested || gs.Skipped != ws.Skipped {
		t.Fatalf("%s: counters %d rebuilds, %d batches, %d ingested, %d skipped; want %d, %d, %d, %d",
			what, gs.Rebuilds, gs.Batches, gs.Ingested, gs.Skipped, ws.Rebuilds, ws.Batches, ws.Ingested, ws.Skipped)
	}
}

// TestReplayPublishesOnce pins construction-time replay: New and
// NewManual given pending records build every record's epoch exactly as
// a follower applying the same records one by one does, but call
// OnPublish once, with the epoch they end on. Covered: a cold start and
// a genesis epoch, with drift rebuilds off and with one at every
// mini-batch (DriftThreshold -1, as in TestDriftTriggersRebuild).
func TestReplayPublishesOnce(t *testing.T) {
	docs := genDocs(t, 17, 30)
	recs := replayRecords(docs)
	for _, tc := range []struct {
		name    string
		drift   float64
		genesis bool
	}{
		{"cold", 2, false},
		{"cold, drift rebuilds", -1, false},
		{"genesis", 2, true},
		{"genesis, drift rebuilds", -1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{K: 4, Seed: 3, DriftThreshold: tc.drift}
			var genesis *Epoch
			pending := recs
			if tc.genesis {
				g := syncLive(cfg)
				g.apply(recs[0], true)
				genesis, pending = g.Current(), recs[1:]
			}

			// The follower's path: construct, then apply record by record.
			follower := NewManual(cfg, genesis, nil)
			for _, rec := range pending {
				if err := follower.ApplyReplicated(rec); err != nil {
					t.Fatal(err)
				}
			}
			if tc.drift < 0 && follower.Status().Rebuilds == 0 {
				t.Fatal("no drift rebuild happened: the scenario does not exercise one")
			}

			for _, build := range []struct {
				name string
				new  func(Config, *Epoch, []Record) *Live
			}{{"New", New}, {"NewManual", NewManual}} {
				var published []*Epoch
				c := cfg
				c.Metrics = obs.NewRegistry()
				c.OnPublish = func(e *Epoch) { published = append(published, e) }
				l := build.new(c, genesis, pending)
				cur := l.Current()
				l.Close()
				if len(published) != 1 || published[0] != cur {
					t.Fatalf("%s: OnPublish ran %d times during construction, want once with the final epoch", build.name, len(published))
				}
				if n := obsCounter(t, c.Metrics, "stream_replayed_records_total"); n != float64(len(pending)) {
					t.Fatalf("%s: replayed %v records, want %d", build.name, n, len(pending))
				}
				assertSamePipeline(t, build.name, l, follower)
			}
		})
	}
}

// stateBytes is an epoch's model and partition as a snapshot stores
// them: DF tables, dictionaries, records and every page and centroid
// vector's bits.
func stateBytes(t *testing.T, e *Epoch) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := e.Model.WriteState(&b, &e.Result); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReplayInPlaceEqualsLive: construction-time replay grows one model
// and one document list in place, and the epoch it ends on equals the
// one a pipeline that applied the same records live publishes — model
// state bytes, assignment and centroids — with and without drift
// rebuilds. The genesis it starts from is the caller's: replay leaves
// its model, state and documents as they were.
func TestReplayInPlaceEqualsLive(t *testing.T) {
	docs := genDocs(t, 23, 30)
	recs := replayRecords(docs)
	for _, drift := range []float64{2, -1} {
		cfg := Config{K: 4, Seed: 5, DriftThreshold: drift}
		g := syncLive(cfg)
		g.apply(recs[0], true)
		genesis := g.Current()
		genesisState, genesisDocs := stateBytes(t, genesis), len(genesis.Docs)

		live := NewManual(cfg, genesis, nil)
		for _, rec := range recs[1:] {
			if err := live.Apply(rec); err != nil {
				t.Fatal(err)
			}
		}
		recovered := NewManual(cfg, genesis, recs[1:])
		got, want := recovered.Current(), live.Current()
		if got.Seq != want.Seq || !bytes.Equal(stateBytes(t, got), stateBytes(t, want)) {
			t.Fatalf("drift %v: replayed epoch %d's state differs from live epoch %d's", drift, got.Seq, want.Seq)
		}
		if !reflect.DeepEqual(got.Result.Assign, want.Result.Assign) ||
			!reflect.DeepEqual(got.Result.Centroids, want.Result.Centroids) ||
			!reflect.DeepEqual(got.Docs, want.Docs) {
			t.Fatalf("drift %v: replayed assignment, centroids or documents differ from live", drift)
		}
		if genesis.Model.Len() != 12 || len(genesis.Docs) != genesisDocs ||
			!bytes.Equal(stateBytes(t, genesis), genesisState) {
			t.Fatalf("drift %v: replay changed the caller's genesis epoch", drift)
		}
	}
}

// TestHeldEpochSurvivesApplyReplicated: a follower's ApplyReplicated
// passes replay=true, but into published epochs, so it grows a copy: an
// epoch a reader holds keeps its page count, documents and state bytes.
func TestHeldEpochSurvivesApplyReplicated(t *testing.T) {
	docs := genDocs(t, 24, 30)
	recs := replayRecords(docs)
	f := NewManual(Config{K: 4, Seed: 5}, nil, recs[:3])
	for _, rec := range recs[3:] {
		held := f.Current()
		pages, ndocs, state := held.Model.Len(), len(held.Docs), stateBytes(t, held)
		if err := f.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
		if held.Model.Len() != pages || len(held.Docs) != ndocs || !bytes.Equal(stateBytes(t, held), state) {
			t.Fatalf("epoch %d changed under a reader across ApplyReplicated", held.Seq)
		}
	}
	if f.Current().Model.Len() <= 3 {
		t.Fatal("the records admitted no pages")
	}
}
