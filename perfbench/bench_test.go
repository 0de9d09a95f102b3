package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1, reverse order
	}
	cases := []struct {
		p    float64
		want float64
	}{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v of 1..1000 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{5, 1, 3}, 50); got != 3 {
		t.Errorf("p50 of {5,1,3} = %v, want 3", got)
	}
	if got := percentile([]float64{5, 1, 3, 4}, 50); got != 3 {
		t.Errorf("p50 of {5,1,3,4} = %v, want 3 (nearest rank, no interpolation)", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %v, want 0", got)
	}
	// 1000 samples leave ten beyond the p99: the minimum the benchmark
	// accepts for a p99.
	if beyond := minSamplesP99 - int(math.Ceil(0.99*minSamplesP99)); beyond != 10 {
		t.Errorf("%d samples leave %d beyond p99, want 10", minSamplesP99, beyond)
	}
}

// TestOpenLoopDueTimeLatency stalls the first request: the ops due
// during the stall must be charged the wait from their due time, not
// from when the lane could finally send them, and the generator's own
// lateness must not absorb the server's stall.
func TestOpenLoopDueTimeLatency(t *testing.T) {
	const stall = 80 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("<ul></ul>"))
	}))
	defer srv.Close()
	in := &inputs{browsePaths: []string{"/", "/cluster?id=0"}}
	ops := make([]op, 40)
	for i := range ops {
		ops[i] = op{kind: opBrowse, arg: 1}
	}
	const rate = 200.0 // one op due every 5 ms
	rd := &reader{c: newClient(), base: srv.URL, in: in, k: 1}
	res := openLoopReads(rd, ops, rate, time.Now())
	if res.failed != 0 || len(res.lat[opBrowse]) != len(ops) {
		t.Fatalf("failed %d, %d samples: %s", res.failed, len(res.lat[opBrowse]), res.firstErr)
	}
	// Op 1 is due 5 ms in but can only be sent once op 0 answers, after
	// the stall: its latency from due time is at least stall - 5 ms.
	if got, want := res.lat[opBrowse][1], ms(stall-5*time.Millisecond); got < want {
		t.Errorf("op 1 latency %.1f ms, want >= %.1f ms (timed from due time)", got, want)
	}
	// Ops due well after the stall cleared are fast again.
	if got := res.lat[opBrowse][len(ops)-1]; got > ms(stall)/2 {
		t.Errorf("last op latency %.1f ms, want well below the stall", got)
	}
	if late := percentile(append([]float64(nil), res.ownLateMs...), 100); late > ms(stall)/2 {
		t.Errorf("generator's own lateness %.1f ms absorbed the server stall", late)
	}
}

// TestIngestLaneOneAtATime serves a front page that counts a posted
// doc only 30 ms later: the lane must never post while a doc is still
// invisible, so each of the server's batches would hold one doc.
func TestIngestLaneOneAtATime(t *testing.T) {
	const lag = 30 * time.Millisecond
	var (
		mu      sync.Mutex
		visible int
		pending time.Time // when the invisible doc becomes visible
		overlap bool
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if !pending.IsZero() && !time.Now().Before(pending) {
			visible++
			pending = time.Time{}
		}
		switch r.URL.Path {
		case "/ingest":
			if !pending.IsZero() {
				overlap = true
			}
			pending = time.Now().Add(lag)
			w.WriteHeader(http.StatusAccepted)
		case "/status":
			fmt.Fprintf(w, `{"Pages": %d}`, 10+visible)
		default:
			fmt.Fprintf(w, `<li><a href="/cluster?id=0">c</a> (%d databases)</li>`, 10+visible)
		}
	}))
	defer srv.Close()
	bodies := make([][]byte, 5)
	res := ingestLane(newClient(), srv.URL, bodies, 10, true)
	if res.failed != 0 || res.accepted != len(bodies) {
		t.Fatalf("failed %d accepted %d: %s", res.failed, res.accepted, res.firstErr)
	}
	if overlap {
		t.Fatal("a doc was posted before the previous one was visible")
	}
	if len(res.visibleMs) != len(bodies) || len(res.uiLagMs) != len(bodies) {
		t.Fatalf("%d visible samples, %d UI-lag samples, want %d", len(res.visibleMs), len(res.uiLagMs), len(bodies))
	}
	for i, v := range res.visibleMs {
		if v < ms(lag) {
			t.Errorf("doc %d visible after %.1f ms, before the %v lag", i, v, lag)
		}
	}
}

func TestFMeasureHandComputed(t *testing.T) {
	gold := map[string]string{"a": "X", "b": "X", "c": "Y", "d": "Y", "e": "Y"}
	clusters := [][]string{{"a", "b", "c", "d", "unlabelled"}, {"e"}}
	// Cluster 0 (4 labelled): X has P=2/4, R=2/2, F=2/3; Y has P=2/4,
	// R=2/3, F=4/7; best 2/3. Cluster 1: Y has P=1, R=1/3, F=1/2.
	// Overall: 4/5 * 2/3 + 1/5 * 1/2 = 19/30.
	if got, want := fMeasure(clusters, gold), 19.0/30; math.Abs(got-want) > 1e-12 {
		t.Errorf("F = %v, want %v", got, want)
	}
	if got := fMeasure([][]string{{"a", "b"}, {"c", "d", "e"}}, gold); got != 1 {
		t.Errorf("perfect clustering F = %v, want 1", got)
	}
}

func TestSamePartitionIgnoresNumbering(t *testing.T) {
	a := [][]string{{"x", "y"}, {"z"}}
	if !samePartition(a, [][]string{{"z"}, {"y", "x"}}) {
		t.Error("relabelled partition should match")
	}
	if samePartition(a, [][]string{{"x"}, {"y", "z"}}) {
		t.Error("different partition should not match")
	}
}

func smallGen(seed int64) genConfig {
	return genConfig{seed: seed, genesis: 80, classify: 20, ingest: 20, queries: 60, reads: 400, k: 4}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, err := generate(smallGen(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(smallGen(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different inputs")
	}
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json.gz"), filepath.Join(dir, "b.json.gz")
	if err := a.genesis.Save(pa); err != nil {
		t.Fatal(err)
	}
	if err := b.genesis.Save(pb); err != nil {
		t.Fatal(err)
	}
	ba, _ := os.ReadFile(pa)
	bb, _ := os.ReadFile(pb)
	if !bytes.Equal(ba, bb) {
		t.Fatal("same seed gave different genesis files")
	}
	c, err := generate(smallGen(8))
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.queries)
	jc, _ := json.Marshal(c.queries)
	if bytes.Equal(ja, jc) && reflect.DeepEqual(a.classifyBodies, c.classifyBodies) {
		t.Fatal("different seeds gave identical inputs")
	}
}

func TestGeneratorSplitsAndMix(t *testing.T) {
	in, err := generate(smallGen(3))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, u := range in.genesisURLs {
		seen[u] = "genesis"
	}
	for _, d := range in.classifyDocs {
		if s, dup := seen[d.URL]; dup {
			t.Fatalf("classify page %s also in %s", d.URL, s)
		}
		seen[d.URL] = "classify"
	}
	for _, u := range in.ingestURLs {
		if s, dup := seen[u]; dup {
			t.Fatalf("ingest page %s also in %s", u, s)
		}
	}
	if len(in.genesisURLs) != 80 || len(in.classifyDocs) != 20 || len(in.ingestURLs) != 20 || len(in.queries) != 60 {
		t.Fatalf("sizes: genesis %d classify %d ingest %d queries %d",
			len(in.genesisURLs), len(in.classifyDocs), len(in.ingestURLs), len(in.queries))
	}
	for b := 0; b < len(in.reads); b += mixBlockLen {
		var got [numOpKinds]int
		for _, o := range in.reads[b : b+mixBlockLen] {
			got[o.kind]++
		}
		if got != mixBlock {
			t.Fatalf("block %d mix %v, want %v", b/mixBlockLen, got, mixBlock)
		}
	}
}
