package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cafc"
)

// newTestLiveServer builds a warm liveServer with search enabled over a
// generated genesis corpus.
func newTestLiveServer(t *testing.T) (*liveServer, func()) {
	t.Helper()
	docs := genCorpus(t, 61, 24)
	corpus, err := cafc.NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	cl := corpus.ClusterC(4, 1)
	ls := &liveServer{}
	live, err := cafc.NewLive(corpus, docs, cl, cafc.LiveConfig{
		K: 4, Seed: 1, BatchSize: 8, FlushInterval: 5 * time.Millisecond,
		OnPublish: ls.onPublish, Search: &cafc.SearchConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ls.live = live
	return ls, func() { live.Close() }
}

// TestSearchEndpoint pins the /search HTTP contract on a leader: ranked
// JSON hits with cluster labels, facets on broad queries, X-Cache
// MISS/HIT across a repeat, and 400s on bad parameters.
func TestSearchEndpoint(t *testing.T) {
	ls, stop := newTestLiveServer(t)
	defer stop()
	ts := httptest.NewServer(ls.mux())
	defer ts.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("X-Cache")
	}

	code, body, cache := get("/search?q=hotel+rooms&k=8")
	if code != http.StatusOK {
		t.Fatalf("search = %d: %s", code, body)
	}
	if cache != "MISS" {
		t.Fatalf("first query X-Cache = %q, want MISS", cache)
	}
	var res cafc.SearchResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, body)
	}
	if res.Query != "hotel rooms" || res.Epoch != 1 || len(res.Hits) == 0 {
		t.Fatalf("result incomplete: %+v", res)
	}
	for i, h := range res.Hits {
		if h.URL == "" || h.Score <= 0 || h.Cluster < 0 || h.ClusterLabel == "" {
			t.Fatalf("hit %d incomplete: %+v", i, h)
		}
		if i > 0 && res.Hits[i-1].Score < h.Score {
			t.Fatalf("hits not ranked: %+v", res.Hits)
		}
	}

	code, body2, cache := get("/search?q=hotel+rooms&k=8")
	if code != http.StatusOK || cache != "HIT" {
		t.Fatalf("repeat query = %d X-Cache=%q, want 200 HIT", code, cache)
	}
	if body != body2 {
		t.Fatal("cached response differs from computed one")
	}
	// Both bodies are the bytes json.Encoder writes for the result.
	res2, cached, err := ls.live.Search("hotel rooms", 8)
	if err != nil || !cached {
		t.Fatalf("Search = cached %v, %v; want the cached result", cached, err)
	}
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(res2); err != nil {
		t.Fatal(err)
	}
	if body2 != enc.String() {
		t.Fatalf("cached /search body\n%s\ndiffers from the encoded result\n%s", body2, &enc)
	}

	if code, _, _ := get("/search"); code != http.StatusBadRequest {
		t.Fatalf("missing q = %d, want 400", code)
	}
	if code, _, _ := get("/search?q=hotel&k=junk"); code != http.StatusBadRequest {
		t.Fatalf("bad k = %d, want 400", code)
	}

	// A cold pipeline answers 503.
	cold := &liveServer{live: mustColdLiveSearch(t)}
	rec := httptest.NewRecorder()
	cold.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q=hotel", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold search = %d, want 503", rec.Code)
	}
}

func mustColdLiveSearch(t *testing.T) *cafc.Live {
	t.Helper()
	l, err := cafc.NewLive(nil, nil, nil, cafc.LiveConfig{
		K: 4, Seed: 1, Search: &cafc.SearchConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestFollowerSearchEndpoint pins that the follower mux routes /search
// to the local replicated index (not a forward to the leader).
func TestFollowerSearchEndpoint(t *testing.T) {
	fs, _, stop := newTestFollowerServer(t, "http://unreachable.example:1")
	defer stop()
	ts := httptest.NewServer(fs.mux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/search?q=hotel+rooms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower search = %d: %s", resp.StatusCode, body)
	}
	var res cafc.SearchResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatalf("follower search returned no hits: %+v", res)
	}
}
