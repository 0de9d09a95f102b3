package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cafc"
	"cafc/internal/directory"
	"cafc/internal/htmlx"
	"cafc/internal/obs"
	"cafc/internal/retry"
	"cafc/internal/webgen"
)

// TestServeWhileIngest is the serve-while-ingest acceptance pin, run
// under -race in check.sh: readers hammer the directory UI, /classify
// and /status while a writer streams documents through POST /ingest.
// Every query must succeed (the epoch swap is atomic — there is no
// half-built window), and the observed epoch sequence must be
// monotonically non-decreasing.
func TestServeWhileIngest(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 31, FormPages: 60})
	var docs []cafc.Document
	for _, u := range c.FormPages {
		docs = append(docs, cafc.Document{URL: u, HTML: c.ByURL[u].HTML})
	}
	genesis := docs[:20]
	corpus, err := cafc.NewCorpus(genesis)
	if err != nil {
		t.Fatal(err)
	}
	cl := corpus.ClusterC(4, 1)

	ls := &liveServer{}
	live, err := cafc.NewLive(corpus, genesis, cl, cafc.LiveConfig{
		K: 4, Seed: 1, BatchSize: 4, FlushInterval: 5 * time.Millisecond,
		OnPublish: ls.onPublish, Search: &cafc.SearchConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ls.live = live
	defer live.Close()

	ts := httptest.NewServer(ls.mux())
	defer ts.Close()

	// Readiness: genesis was published, so /healthz must be green.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d before ingest", resp.StatusCode)
	}

	var (
		failed  atomic.Int64
		queries atomic.Int64
		done    = make(chan struct{})
		wg      sync.WaitGroup
	)
	paths := []string{"/", "/search?q=title", "/status", "/healthz"}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var lastEpoch int64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := paths[(i+id)%len(paths)]
				resp, err := ts.Client().Get(ts.URL + p)
				if err != nil {
					failed.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				queries.Add(1)
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
					t.Errorf("GET %s = %d: %s", p, resp.StatusCode, body)
					return
				}
				if p == "/status" {
					var st cafc.LiveStatus
					if err := json.Unmarshal(body, &st); err != nil {
						failed.Add(1)
						t.Errorf("status decode: %v", err)
						return
					}
					if st.Epoch < lastEpoch {
						failed.Add(1)
						t.Errorf("epoch went backwards: %d after %d", st.Epoch, lastEpoch)
						return
					}
					lastEpoch = st.Epoch
				}
			}
		}(r)
	}
	// One classify reader exercising the per-epoch classifier.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			body, _ := json.Marshal(ingestRequest{URL: docs[i%20].URL, HTML: docs[i%20].HTML})
			resp, err := ts.Client().Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				failed.Add(1)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			queries.Add(1)
			if resp.StatusCode != http.StatusOK {
				failed.Add(1)
				t.Errorf("POST /classify = %d", resp.StatusCode)
				return
			}
		}
	}()

	// The writer: stream the remaining 40 documents one POST at a time.
	for _, d := range docs[20:] {
		body, _ := json.Marshal(ingestRequest{URL: d.URL, HTML: d.HTML})
		for {
			resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				time.Sleep(time.Millisecond) // backpressure: retry
				continue
			}
			t.Fatalf("POST /ingest = %d", resp.StatusCode)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if e := live.Epoch(); e != nil && e.Corpus.Len() == len(docs) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(done)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d of %d queries failed during ingest", failed.Load(), queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("no reader queries ran — test is vacuous")
	}
	e := live.Epoch()
	if e.Corpus.Len() != len(docs) {
		t.Fatalf("final corpus %d pages, want %d", e.Corpus.Len(), len(docs))
	}
	// The UI swapped to the final epoch: the front page lists every
	// cluster of the latest clustering.
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(page, []byte(fmt.Sprintf("%d databases", len(docs)))) &&
		!bytes.Contains(page, []byte("cluster")) {
		t.Errorf("front page looks stale: %.200s", page)
	}
}

// TestLiveUIMatchesBuild: the UI onPublish serves from an epoch's search
// index equals the one directory.Build makes by re-parsing the epoch's
// HTML. It checks every epoch a leader publishes while ingesting in small
// batches, and the epoch a recovery of its state directory publishes,
// whose index is rebuilt from the WAL's HTML. The browse pages the live
// UI serves at each publish, each requested twice, must equal a fresh
// render of that epoch: a page rendered once per epoch must not outlive
// the epoch swap.
func TestLiveUIMatchesBuild(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 53, FormPages: 48})
	var docs []cafc.Document
	for _, u := range c.FormPages {
		docs = append(docs, cafc.Document{URL: u, HTML: c.ByURL[u].HTML})
	}
	genesis := docs[:16]
	corpus, err := cafc.NewCorpus(genesis)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		epochs []*cafc.LiveEpoch
		served []map[string]string // per epoch: browse path → body
	)
	ls := &liveServer{}
	cfg := cafc.LiveConfig{
		K: 4, Seed: 1, BatchSize: 4, FlushInterval: 5 * time.Millisecond, Dir: t.TempDir(),
		OnPublish: func(e *cafc.LiveEpoch) {
			ls.onPublish(e)
			pages := make(map[string]string)
			for _, path := range browsePaths(len(e.Clustering.Clusters)) {
				first, second := browse(t, http.HandlerFunc(ls.handleUI), path), browse(t, http.HandlerFunc(ls.handleUI), path)
				if first != second {
					t.Errorf("epoch %d %s: a repeat request served different bytes", e.Epoch, path)
				}
				pages[path] = first
			}
			mu.Lock()
			epochs = append(epochs, e)
			served = append(served, pages)
			mu.Unlock()
		},
		Search: &cafc.SearchConfig{},
	}
	live, err := cafc.NewLive(corpus, genesis, corpus.ClusterC(4, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[16:] {
		if err := live.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := live.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	published := len(epochs)
	mu.Unlock()
	if published < 3 || epochs[published-1].Corpus.Len() != len(docs) {
		t.Fatalf("leader published %d epochs; want several, the last with all %d pages", published, len(docs))
	}

	recovered, err := cafc.RecoverLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recovered.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(epochs) != published+1 || epochs[published].Corpus.Len() != len(docs) {
		t.Fatalf("recovery published %d epochs, want one with %d pages", len(epochs)-published, len(docs))
	}

	matched := 0
	for ei, e := range epochs {
		labels := uiLabels(e)
		fresh := directory.New(e.SearchIndex, labels).Handler()
		for path, body := range served[ei] {
			if want := browse(t, fresh, path); body != want {
				t.Fatalf("epoch %d %s served:\n%s\na fresh render of the epoch is:\n%s", e.Epoch, path, body, want)
			}
		}
		// The served pages list the epoch's own clusters: sizes on the
		// front page, members in order on each cluster page.
		for ci, urls := range e.Clustering.Clusters {
			if !strings.Contains(served[ei]["/"], fmt.Sprintf(`<a href="/cluster?id=%d">%s</a> (%d databases)`, ci, htmlx.EscapeText(labels[ci]), len(urls))) {
				t.Fatalf("epoch %d front page does not list cluster %d with %d members:\n%s", e.Epoch, ci, len(urls), served[ei]["/"])
			}
			var hrefs, want []string
			for _, m := range hrefRE.FindAllStringSubmatch(served[ei][fmt.Sprintf("/cluster?id=%d", ci)], -1) {
				hrefs = append(hrefs, m[1])
			}
			for _, u := range urls {
				want = append(want, htmlx.EscapeAttr(u))
			}
			if !reflect.DeepEqual(hrefs, want) {
				t.Fatalf("epoch %d cluster %d page lists %q, the epoch has %q", e.Epoch, ci, hrefs, urls)
			}
		}
		html := make(map[string]string, len(e.Docs))
		for _, d := range e.Docs {
			html[d.URL] = d.HTML
		}
		got := directory.New(e.SearchIndex, labels)
		want := directory.Build(e.Clustering.Clusters, labels, html)
		if !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Fatalf("epoch %d labels %q, Build has %q", e.Epoch, got.Labels, want.Labels)
		}
		for i, l := range e.SearchLabels {
			if l != "" && got.Labels[i] != l {
				t.Fatalf("epoch %d cluster %d is labeled %q, not its search label %q", e.Epoch, i, got.Labels[i], l)
			}
		}
		if len(got.Clusters) != len(e.Clustering.Clusters) || len(want.Clusters) != len(e.Clustering.Clusters) {
			t.Fatalf("epoch %d: %d clusters, Build has %d, the clustering %d", e.Epoch, len(got.Clusters), len(want.Clusters), len(e.Clustering.Clusters))
		}
		for ci, urls := range e.Clustering.Clusters {
			if len(got.Clusters[ci]) != len(urls) || len(want.Clusters[ci]) != len(urls) {
				t.Fatalf("epoch %d cluster %d: %d members, Build has %d, the clustering %d", e.Epoch, ci, len(got.Clusters[ci]), len(want.Clusters[ci]), len(urls))
			}
			for i, u := range urls {
				g, w := got.Clusters[ci][i], want.Clusters[ci][i]
				if g.URL != u || w.URL != u || g.Title != w.Title {
					t.Fatalf("epoch %d cluster %d member %d = %q %q, Build has %q %q, the clustering %q", e.Epoch, ci, i, g.URL, g.Title, w.URL, w.Title, u)
				}
			}
		}
		for _, q := range []string{"hotel", "title", "flight", "job", "car"} {
			g, w := selectRows(t, got.Handler(), q), selectRows(t, want.Handler(), q)
			if g != w {
				t.Fatalf("epoch %d /select?q=%s:\n%s\nBuild serves:\n%s", e.Epoch, q, g, w)
			}
			matched += strings.Count(g, "matching sources")
		}
	}
	if matched == 0 {
		t.Fatal("no query matched any cluster: the /select comparison is vacuous")
	}
}

// hrefRE matches a cluster page's member links.
var hrefRE = regexp.MustCompile(`<li><a href="([^"]*)">`)

// browsePaths lists a k-cluster directory's browse pages: the front
// page and every cluster's member page.
func browsePaths(k int) []string {
	paths := []string{"/"}
	for c := 0; c < k; c++ {
		paths = append(paths, fmt.Sprintf("/cluster?id=%d", c))
	}
	return paths
}

// browse returns the body h serves for a GET of path, failing unless
// it is a 200.
func browse(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET %s = %d", path, rec.Code)
	}
	return rec.Body.String()
}

// selectRows returns the database-selection page a directory UI serves
// for q: its rows are the query's SearchClusters ranking.
func selectRows(t *testing.T, h http.Handler, q string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/select?q="+q, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/select?q=%s = %d", q, rec.Code)
	}
	return rec.Body.String()
}

// TestIngestRejectsWholeBody: an array with one bad element gets a 400
// and queues none of its elements, not even those before the bad one.
func TestIngestRejectsWholeBody(t *testing.T) {
	ls := &liveServer{}
	live, err := cafc.NewLive(nil, nil, nil, cafc.LiveConfig{
		K: 2, BatchSize: 4, FlushInterval: 5 * time.Millisecond,
		OnPublish: ls.onPublish, Search: &cafc.SearchConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ls.live = live
	defer live.Close()
	ts := httptest.NewServer(ls.mux())
	defer ts.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const html = `"<form action=\"/q\"><input type=\"text\" name=\"title\"/></form>"`

	if code := post(`[{"url":"http://a.example/","html":` + html + `},{"url":""}]`); code != http.StatusBadRequest {
		t.Fatalf("POST /ingest with an empty url = %d, want 400", code)
	}
	if d := live.Status().QueueDepth; d != 0 {
		t.Fatalf("queue depth %d after a rejected body, want 0", d)
	}
	// The queue is FIFO: once a later document is applied, anything the
	// rejected body had queued would have been applied with or before it.
	if code := post(`{"url":"http://b.example/","html":` + html + `}`); code != http.StatusAccepted {
		t.Fatalf("POST /ingest = %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for live.Epoch() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	e := live.Epoch()
	if e == nil {
		t.Fatalf("no epoch after a valid ingest: %+v", live.Status())
	}
	if urls := e.Corpus.URLs(); !reflect.DeepEqual(urls, []string{"http://b.example/"}) {
		t.Fatalf("corpus = %v, want only the valid document", urls)
	}
}

// TestColdHealthz pins readiness gating: a cold live server reports 503
// everywhere until the first epoch is founded by ingest.
func TestColdHealthz(t *testing.T) {
	ls := &liveServer{}
	live, err := cafc.NewLive(nil, nil, nil, cafc.LiveConfig{
		K: 2, BatchSize: 4, FlushInterval: 5 * time.Millisecond,
		OnPublish: ls.onPublish, Search: &cafc.SearchConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ls.live = live
	defer live.Close()
	ts := httptest.NewServer(ls.mux())
	defer ts.Close()

	for _, p := range []string{"/healthz", "/"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("cold GET %s = %d, want 503", p, resp.StatusCode)
		}
	}

	c := webgen.Generate(webgen.Config{Seed: 37, FormPages: 8})
	var payload []ingestRequest
	for _, u := range c.FormPages {
		payload = append(payload, ingestRequest{URL: u, HTML: c.ByURL[u].HTML})
	}
	body, _ := json.Marshal(payload)
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /ingest = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return // founded: ready
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("healthz never turned ready after founding ingest: %+v", live.Status())
}

// TestHealthProblem pins the degradation rule /healthz applies: queue
// saturation at 90% of capacity.
func TestHealthProblem(t *testing.T) {
	if reason, bad := healthProblem(cafc.LiveStatus{QueueDepth: 10, QueueCap: 100}); bad {
		t.Fatalf("10%% queue reported degraded: %s", reason)
	}
	reason, bad := healthProblem(cafc.LiveStatus{QueueDepth: 95, QueueCap: 100})
	if !bad || !strings.Contains(reason, "queue") {
		t.Fatalf("saturated queue: degraded=%v reason=%q", bad, reason)
	}
}

// TestHealthzDegradedHTTP drives the full handler of a server wired as
// runLive wires one: startLive with the registry the -metrics routes
// serve, and a genesis whose backlink breaker opens. breaker_state in
// that registry reads open, yet /healthz answers 200, because readiness
// reports only what the server does now and no breaker guards a request
// it serves.
func TestHealthzDegradedHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	p := liveParams{in: writeDataset(t, 7, 60), k: 4, seed: 7, retries: 3, outageAt: 11}
	ls, err := startLive(context.Background(), p, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.live.Close()
	if v := reg.Gauge("breaker_state", "component", "backlink").Value(); v != float64(retry.Open) {
		t.Fatalf("breaker_state{component=backlink} = %v after the genesis outage, want open (%v)", v, float64(retry.Open))
	}
	ts := httptest.NewServer(ls.mux())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz with the backlink breaker open = %d: %s", resp.StatusCode, body)
	}
}

// TestQualityEndpoint pins /debug/quality: a live server with the
// monitor configured serves the latest snapshot and its history.
func TestQualityEndpoint(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 43, FormPages: 16})
	labels := make(map[string]string)
	var docs []cafc.Document
	for _, u := range c.FormPages {
		docs = append(docs, cafc.Document{URL: u, HTML: c.ByURL[u].HTML})
		labels[u] = string(c.Labels[u])
	}
	ls := &liveServer{}
	live, err := cafc.NewLive(nil, nil, nil, cafc.LiveConfig{
		K: 3, Seed: 1, BatchSize: 4, FlushInterval: 5 * time.Millisecond,
		OnPublish: ls.onPublish,
		Quality:   &cafc.QualityConfig{Labels: labels},
		Search:    &cafc.SearchConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ls.live = live
	defer live.Close()
	ts := httptest.NewServer(ls.mux())
	defer ts.Close()

	for _, d := range docs {
		body, _ := json.Marshal(ingestRequest{URL: d.URL, HTML: d.HTML})
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if e := live.Epoch(); e != nil && e.Corpus.Len() == len(docs) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/quality = %d: %s", resp.StatusCode, body)
	}
	var payload struct {
		Latest  cafc.QualitySnapshot   `json:"latest"`
		History []cafc.QualitySnapshot `json:"history"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("decode /debug/quality: %v: %s", err, body)
	}
	if payload.Latest.Pages != len(docs) || payload.Latest.Epoch == 0 {
		t.Fatalf("latest snapshot = %+v, want %d pages", payload.Latest, len(docs))
	}
	if payload.Latest.Labeled != len(docs) {
		t.Fatalf("labels did not flow through: labeled=%d", payload.Latest.Labeled)
	}
	if len(payload.History) == 0 {
		t.Fatal("empty quality history after ingest")
	}

	// Without a monitor the endpoint 404s instead of serving nothing.
	bare := &liveServer{}
	bareLive, err := cafc.NewLive(nil, nil, nil, cafc.LiveConfig{K: 2, OnPublish: bare.onPublish, Search: &cafc.SearchConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	bare.live = bareLive
	defer bareLive.Close()
	ts2 := httptest.NewServer(bare.mux())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/quality without monitor = %d, want 404", resp2.StatusCode)
	}
}

// TestBrowseConcurrentFirstRequests: readers that all ask for the same
// browse pages at once, before any has been rendered, each get the
// page's full bytes. Run under -race, it also checks that the render
// happens-before every read of the cached bytes.
func TestBrowseConcurrentFirstRequests(t *testing.T) {
	ls, stop := newTestLiveServer(t)
	defer stop()
	e := ls.live.Epoch()
	fresh := directory.New(e.SearchIndex, uiLabels(e)).Handler()
	paths := browsePaths(len(e.Clustering.Clusters))
	want := make(map[string]string, len(paths))
	for _, p := range paths {
		want[p] = browse(t, fresh, p)
	}
	h := ls.mux()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := range paths {
				p := paths[(i+r)%len(paths)]
				if got := browse(t, h, p); got != want[p] {
					t.Errorf("reader %d %s:\n%s\nwant:\n%s", r, p, got, want[p])
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
}
