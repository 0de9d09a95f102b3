package cafc

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/gob"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
)

func newGzip(w io.Writer) *gzip.Writer { return gzip.NewWriter(w) }

func TestSaveLoadRoundTrip(t *testing.T) {
	docs, labels, roots, backlinks := testDocs(t, 11, 120)
	orig, err := NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), orig.Len())
	}
	// Similarities must survive exactly.
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			a, b := orig.Similarity(i, j), loaded.Similarity(i, j)
			if diff := a - b; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("sim(%d,%d) drifted: %v vs %v", i, j, a, b)
			}
		}
	}
	// Clustering a loaded corpus works and matches quality-wise.
	clOrig := orig.ClusterCH(8, backlinks, roots, 1)
	clLoaded := loaded.ClusterCH(8, backlinks, roots, 1)
	eo, fo := clOrig.Quality(labels)
	el, fl := clLoaded.Quality(labels)
	// Quality sums floats in map-iteration order, so allow rounding noise.
	if abs(eo-el) > 1e-9 || abs(fo-fl) > 1e-9 {
		t.Errorf("quality drifted: (%.3f, %.3f) vs (%.3f, %.3f)", eo, fo, el, fl)
	}
}

func TestLoadedCorpusClassifies(t *testing.T) {
	docs, labels, _, _ := testDocs(t, 12, 120)
	orig, err := NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cl := loaded.ClusterC(8, 1)
	names := make([]string, len(cl.Clusters))
	for i, members := range cl.Clusters {
		counts := map[string]int{}
		for _, u := range members {
			counts[labels[u]]++
		}
		for d, n := range counts {
			if names[i] == "" || n > counts[names[i]] {
				names[i] = d
			}
		}
	}
	clf := loaded.Classifier(cl, names)
	held, heldLabels, _, _ := testDocs(t, 13, 40)
	correct, total := 0, 0
	for _, d := range held {
		pred, ok, err := clf.Classify(d)
		if err != nil || !ok {
			continue
		}
		total++
		if pred.Label == heldLabels[d.URL] {
			correct++
		}
	}
	if total < 25 {
		t.Fatalf("classified only %d", total)
	}
	if acc := float64(correct) / float64(total); acc < 0.6 {
		t.Errorf("loaded-corpus classifier accuracy %.3f", acc)
	}
}

func TestLoadCorpusRejectsGarbage(t *testing.T) {
	if _, err := LoadCorpus(strings.NewReader("not gzip")); err == nil {
		t.Error("garbage accepted")
	}
	// Valid gzip, invalid gob.
	var buf bytes.Buffer
	zw := newGzip(&buf)
	_, _ = zw.Write([]byte("junk"))
	_ = zw.Close()
	if _, err := LoadCorpus(&buf); err == nil {
		t.Error("gzip-wrapped junk accepted")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestLoadV1Snapshot pins backward compatibility: a version-1 snapshot
// written before the live-directory fields existed (checked in under
// testdata/) must still load, and re-saving it produces a version-2
// snapshot that round-trips with stream positioning intact.
func TestLoadV1Snapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v1.gob.gz")
	if err != nil {
		t.Fatal(err)
	}

	// Guard the fixture itself: it must really be version 1, or this
	// test silently stops covering the compatibility path.
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var snap corpusSnapshot
	if err := gob.NewDecoder(zr).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 {
		t.Fatalf("fixture is version %d — regenerate it with v1 code or update the test", snap.Version)
	}

	loaded, info, err := LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info != (SnapshotInfo{}) {
		t.Errorf("v1 snapshot carries stream positioning: %+v", info)
	}
	if loaded.Len() != 24 {
		t.Fatalf("fixture corpus has %d pages, want 24", loaded.Len())
	}
	// The fixture was built from webgen seed 41; a fresh build over the
	// same documents must agree on similarities.
	docs, _, _, _ := testDocs(t, 41, 24)
	fresh, err := NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < loaded.Len(); i++ {
		for j := i + 1; j < loaded.Len(); j++ {
			if d := abs(loaded.Similarity(i, j) - fresh.Similarity(i, j)); d > 1e-12 {
				t.Fatalf("sim(%d,%d) drifted %v from fresh build", i, j, d)
			}
		}
	}

	// v1 -> v2 round-trip: re-save with stream positioning, reload, and
	// both the model and the positioning must survive.
	var buf bytes.Buffer
	if err := loaded.SaveSnapshot(&buf, SnapshotInfo{Epoch: 7, WALOffset: 3}); err != nil {
		t.Fatal(err)
	}
	re, info2, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info2 != (SnapshotInfo{Epoch: 7, WALOffset: 3}) {
		t.Errorf("v2 positioning lost: %+v", info2)
	}
	if re.Len() != loaded.Len() {
		t.Fatalf("v2 reload lost pages: %d vs %d", re.Len(), loaded.Len())
	}
	if d := abs(re.Similarity(0, 1) - loaded.Similarity(0, 1)); d > 1e-12 {
		t.Errorf("v2 reload drifted: %v", d)
	}
}

// TestLoadCorpusRejectsFutureVersion keeps the version gate honest.
func TestLoadCorpusRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	zw := newGzip(&buf)
	if err := gob.NewEncoder(zw).Encode(corpusSnapshot{Version: snapshotVersion + 1}); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if _, err := LoadCorpus(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
	next := append([]byte("CAFCsnap"), snapshotVersion+1)
	if _, err := LoadCorpus(bytes.NewReader(next)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future binary version accepted: %v", err)
	}
}

// TestLoadCorpusReattachesRunOptions is the regression test for run
// options dropped on load: a corpus loaded with Options must emit
// telemetry, keep the resilient backlink policy, and honor the skip
// policy — the same wiring NewCorpus would have done.
func TestLoadCorpusReattachesRunOptions(t *testing.T) {
	docs, _, _, _ := testDocs(t, 17, 32)
	orig, err := NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	loaded, err := LoadCorpus(&buf, Options{
		Metrics:           reg,
		Retry:             &Retry{MaxAttempts: 2},
		SkipNonSearchable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded.ClusterC(4, 1)
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "kmeans_runs_total" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("loaded corpus emitted no kmeans telemetry — Metrics option dropped on load")
	}
	if loaded.retry == nil || loaded.retry.MaxAttempts != 2 {
		t.Error("Retry option dropped on load")
	}
	if _, err := loaded.Append([]Document{{URL: "http://x/", HTML: "<p>formless</p>"}}); err != nil {
		t.Errorf("SkipNonSearchable option dropped on load: %v", err)
	}
	if len(loaded.Skipped) != 1 {
		t.Errorf("skip bookkeeping after load: %v", loaded.Skipped)
	}
}

// saveV2 is the version 2 encoder as it shipped: gzip-compressed gob of
// corpusSnapshot. It is the reference for v3's size and speed.
func saveV2(c *Corpus, w io.Writer, info SnapshotInfo) error {
	snap := corpusSnapshot{
		Version: 2, URLs: c.urls, Weights: c.weights, Uniform: c.model.Uniform,
		Features: int(c.model.Features), C1: c.model.C1, C2: c.model.C2,
		Epoch: info.Epoch, WALOffset: info.WALOffset,
	}
	for _, p := range c.model.Pages {
		snap.FC = append(snap.FC, p.FC)
		snap.PC = append(snap.PC, p.PC)
	}
	snap.FCDFN, snap.FCDF = c.model.FCDF.Snapshot()
	snap.PCDFN, snap.PCDF = c.model.PCDF.Snapshot()
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(snap); err != nil {
		return err
	}
	return zw.Close()
}

// TestLoadV2Snapshot pins the version 2 fixture (written by the v2
// encoder from webgen seed 43): it loads, and a state dir holding it
// with its genesis WAL record recovers through the re-cluster path,
// with term records parsed from the WAL's HTML so search and rebuilds
// work.
func TestLoadV2Snapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v2.gob.gz")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var snap corpusSnapshot
	if err := gob.NewDecoder(zr).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 {
		t.Fatalf("fixture is version %d, want 2", snap.Version)
	}
	loaded, info, err := LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info != (SnapshotInfo{Epoch: 1, WALOffset: 1}) {
		t.Errorf("v2 positioning = %+v, want epoch 1 at WAL offset 1", info)
	}
	docs, _, _, _ := testDocs(t, 43, 24)
	fresh, err := NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != fresh.Len() {
		t.Fatalf("fixture has %d pages, fresh build %d", loaded.Len(), fresh.Len())
	}
	for i := 0; i < loaded.Len(); i++ {
		for j := i + 1; j < loaded.Len(); j++ {
			if d := abs(loaded.Similarity(i, j) - fresh.Similarity(i, j)); d > 1e-12 {
				t.Fatalf("sim(%d,%d) drifted %v from fresh build", i, j, d)
			}
		}
	}

	r := recoverFromFixture(t, raw, docs)
	defer r.Close()
	ri := r.Status().Recovery
	if ri == nil || ri.SnapshotVersion != 2 || ri.SnapshotBytes != int64(len(raw)) ||
		ri.Partition != "re-clustered" || ri.Reason != "snapshot v2 carries no partition" {
		t.Fatalf("Status().Recovery = %+v", ri)
	}
	e := r.Epoch()
	if e.Epoch != 1 || e.Corpus.Len() != 24 || len(e.Clustering.Clusters) != 4 {
		t.Fatalf("recovered epoch %d with %d pages, k=%d", e.Epoch, e.Corpus.Len(), len(e.Clustering.Clusters))
	}
	for i, p := range e.Corpus.model.Pages {
		if p.Rec == nil {
			t.Fatalf("v2 recovery left page %d without a term record", i)
		}
	}
	res, _, err := r.Search(strings.Fields(e.SearchIndex.Members()[0][0].Title)[0], 5)
	if err != nil || len(res.Hits) == 0 {
		t.Fatalf("search over the recovered index found nothing (%v)", err)
	}
	// A rebuild re-embeds every page from its record: the result equals
	// a fresh build's vectors.
	if err := r.ForceRebuild(); err != nil {
		t.Fatal(err)
	}
	waitLive(t, "rebuild", func() bool { return r.Epoch().Rebuilt })
	rebuilt := r.Epoch().Corpus
	for i := 0; i < rebuilt.Len(); i++ {
		if !reflect.DeepEqual(rebuilt.model.Pages[i].PC, fresh.model.Pages[i].PC) {
			t.Fatalf("page %d: rebuilt PC vector differs from a fresh build", i)
		}
	}
}

// TestRecoverV1Snapshot: a state dir holding only the version 1 fixture
// recovers through the re-cluster path.
func TestRecoverV1Snapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v1.gob.gz")
	if err != nil {
		t.Fatal(err)
	}
	r := recoverFromFixture(t, raw, nil)
	defer r.Close()
	ri := r.Status().Recovery
	if ri == nil || ri.SnapshotVersion != 1 || ri.Partition != "re-clustered" ||
		ri.Reason != "snapshot v1 carries no partition" {
		t.Fatalf("Status().Recovery = %+v", ri)
	}
	if e := r.Epoch(); e.Epoch != 1 || e.Corpus.Len() != 24 || len(e.Clustering.Clusters) != 4 {
		t.Fatalf("recovered epoch %d with %d pages, k=%d", e.Epoch, e.Corpus.Len(), len(e.Clustering.Clusters))
	}
}

// TestReembedV2CorpusAfterAppend: a corpus loaded from the version 2
// fixture and grown by Append re-embeds the pages it appended, which
// carry term records, and keeps the stored vectors of the fixture's
// pages, which carry none.
func TestReembedV2CorpusAfterAppend(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v2.gob.gz")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	docs, _, _, _ := testDocs(t, 43, 24)
	extra, _, _, _ := testDocs(t, 44, 16)
	// Two batches, so the first is embedded under DF tables the second
	// changes.
	for _, batch := range [][]Document{extra[:8], extra[8:]} {
		if _, err := loaded.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := NewCorpus(append(append([]Document(nil), docs...), extra...))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != fresh.Len() || loaded.Len() != len(docs)+len(extra) {
		t.Fatalf("%d pages loaded and appended, %d built", loaded.Len(), fresh.Len())
	}
	before := append([]*icafc.Page(nil), loaded.model.Pages...)
	if reflect.DeepEqual(before[len(docs)].PC, fresh.model.Pages[len(docs)].PC) {
		t.Fatal("the first appended page is current before the re-embed; the fixture needs a stale one")
	}
	loaded.Reembed()
	for i, p := range loaded.model.Pages {
		if i < len(docs) {
			if p != before[i] {
				t.Fatalf("fixture page %d, which has no record, was replaced", i)
			}
			continue
		}
		if !reflect.DeepEqual(p.PC, fresh.model.Pages[i].PC) || !reflect.DeepEqual(p.FC, fresh.model.Pages[i].FC) {
			t.Fatalf("appended page %d: vectors differ from a fresh build's after Reembed", i)
		}
	}
}

// TestSnapshotV3RoundTrip: a corpus saved with a partition loads back
// with the same positioning, LOC weights and URLs, and with the same
// model state — DF tables, dictionaries, records, every page and
// centroid vector bit (internal/cafc's TestStateRoundTrip compares them
// field by field) — and re-saves to the same bytes.
func TestSnapshotV3RoundTrip(t *testing.T) {
	docs, _, _, _ := testDocs(t, 19, 48)
	c, err := NewCorpus(docs[:40])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(docs[40:]); err != nil {
		t.Fatal(err)
	}
	m := c.model
	cl := c.ClusterC(4, 3)
	res := cluster.Result{K: 4, Assign: make([]int, m.Len())}
	for i, u := range c.urls {
		res.Assign[i] = cl.Assign[u]
	}
	for _, members := range cluster.Members(res.Assign, 4) {
		res.Centroids = append(res.Centroids, m.Centroid(members))
	}
	res.Assign[5] = -1 // an unassigned page survives too

	var buf bytes.Buffer
	info := SnapshotInfo{Epoch: 9, WALOffset: 4}
	if err := c.saveSnapshot(&buf, info, &res); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	s, err := loadSnapshot(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.info != info || s.version != snapshotVersion || !reflect.DeepEqual(s.corpus.urls, c.urls) || s.corpus.weights != c.weights {
		t.Fatalf("header differs: %+v v%d", s.info, s.version)
	}
	if !bytes.Equal(stateOf(t, s.corpus.model, s.result), stateOf(t, m, &res)) {
		t.Fatal("loaded model state or partition differs from the saved one")
	}
	var again bytes.Buffer
	if err := s.corpus.saveSnapshot(&again, info, s.result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatal("re-saving the loaded snapshot changed its bytes")
	}
}

// stateOf is the model's state, with the partition res, as a snapshot
// stores it.
func stateOf(t *testing.T, m *icafc.Model, res *cluster.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.WriteState(&b, res); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

var updateSnapshotGolden = flag.Bool("update-snapshot-golden", false, "rewrite testdata/snapshot_v3.bin")

// goldenSnapshot is the fixed corpus behind the byte-pinned v3 fixture:
// hand-written pages (so the fixture changes only with the format),
// three built at once and one appended after, with a two-cluster
// partition.
func goldenSnapshot(t *testing.T) ([]byte, []byte) {
	t.Helper()
	page := func(host, title, field, option string) Document {
		return Document{URL: "http://" + host + ".example/search", HTML: "<html><head><title>" + title +
			"</title></head><body><p>" + title + " search</p><form action=\"/q\">" + field +
			": <input type=\"text\" name=\"" + field + "\"><select name=\"s\"><option>" + option +
			"</option></select></form></body></html>"}
	}
	c, err := NewCorpus([]Document{
		page("books", "Used books", "author", "hardcover"),
		page("cars", "Used cars", "make", "sedan"),
		page("jobs", "Job listings", "keywords", "full time"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append([]Document{page("music", "Music albums", "artist", "vinyl")}); err != nil {
		t.Fatal(err)
	}
	res := cluster.Result{K: 2, Assign: []int{0, 1, 1, 0}}
	for _, members := range cluster.Members(res.Assign, 2) {
		res.Centroids = append(res.Centroids, c.model.Centroid(members))
	}
	var buf bytes.Buffer
	if err := c.saveSnapshot(&buf, SnapshotInfo{Epoch: 2, WALOffset: 2}, &res); err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := c.writePayload(&payload, SnapshotInfo{Epoch: 2, WALOffset: 2}, &res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), payload.Bytes()
}

const goldenSnapshotPath = "testdata/snapshot_v3.bin"

// TestSnapshotV3Golden pins the v3 encoder byte for byte, as the WAL
// golden fixture pins WAL frames. The decompressed payload is compared
// first, so a format change is told apart from a change in the flate
// encoder. Run with -update-snapshot-golden after a deliberate format
// change (which also takes a version bump).
func TestSnapshotV3Golden(t *testing.T) {
	file, payload := goldenSnapshot(t)
	if *updateSnapshotGolden {
		if err := os.WriteFile(goldenSnapshotPath, file, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(want, append([]byte("CAFCsnap"), 3)) {
		t.Fatal("golden file lacks the v3 header")
	}
	wantPayload, err := io.ReadAll(flate.NewReader(bytes.NewReader(want[9:])))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, wantPayload) {
		t.Fatalf("v3 payload drifted from %s (%d bytes, want %d)", goldenSnapshotPath, len(payload), len(wantPayload))
	}
	if !bytes.Equal(file, want) {
		t.Fatalf("v3 file bytes drifted from %s with an identical payload: the flate encoder changed", goldenSnapshotPath)
	}
	c, info, err := LoadSnapshot(bytes.NewReader(want))
	if err != nil || c.Len() != 4 || info != (SnapshotInfo{Epoch: 2, WALOffset: 2}) {
		t.Fatalf("golden file loads as %v pages at %+v (%v)", c, info, err)
	}
}

// TestSnapshotV3NoLargerThanV2 holds v3 to v2's size at the paper's 454
// pages and at serve's 2000.
func TestSnapshotV3NoLargerThanV2(t *testing.T) {
	sizes := []int{454, 2000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		docs, _, _, _ := testDocs(t, 4001, n)
		c, err := NewCorpus(docs, Options{SkipNonSearchable: true})
		if err != nil {
			t.Fatal(err)
		}
		var v2, v3 bytes.Buffer
		if err := saveV2(c, &v2, SnapshotInfo{Epoch: 1, WALOffset: 1}); err != nil {
			t.Fatal(err)
		}
		if err := c.SaveSnapshot(&v3, SnapshotInfo{Epoch: 1, WALOffset: 1}); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d pages: v2 %d bytes, v3 %d bytes", c.Len(), v2.Len(), v3.Len())
		if v3.Len() > v2.Len() {
			t.Errorf("%d pages: v3 is %d bytes, v2 %d", c.Len(), v3.Len(), v2.Len())
		}
	}
}

// FuzzLoadSnapshot: every input loads to a corpus or fails with an
// error; none panics, and a loaded partition indexes the loaded pages.
// Each input is also decoded as an uncompressed v3 payload, so the
// fuzzer reaches the decoder without first forging a flate stream. No
// length prefix may allocate beyond the bytes that remain (the decoder's
// count checks), which keeps every input's memory proportional to its
// size.
func FuzzLoadSnapshot(f *testing.F) {
	seed := func(b []byte) {
		f.Add(b)
		for _, cut := range []int{1, 8, 9, 10, len(b) / 3, len(b) / 2, len(b) - 1} {
			if cut < len(b) {
				f.Add(b[:cut])
			}
		}
	}
	for _, name := range []string{"testdata/snapshot_v1.gob.gz", "testdata/snapshot_v2.gob.gz", goldenSnapshotPath} {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		seed(b)
		if name == goldenSnapshotPath {
			payload, err := io.ReadAll(flate.NewReader(bytes.NewReader(b[9:])))
			if err != nil {
				f.Fatal(err)
			}
			seed(payload)
		}
	}
	check := func(t *testing.T, s *loadedSnapshot) {
		c := s.corpus
		if c.Len() != c.model.Len() {
			t.Fatalf("corpus of %d URLs over %d pages", c.Len(), c.model.Len())
		}
		if c.Len() > 0 {
			c.Similarity(0, c.Len()-1)
		}
		if s.result != nil {
			c.newClustering(*s.result)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := loadSnapshot(bytes.NewReader(b), Options{}); err == nil {
			check(t, s)
		}
		if s, err := decodeSnapshot(b, Options{}); err == nil {
			check(t, s)
		}
	})
}
