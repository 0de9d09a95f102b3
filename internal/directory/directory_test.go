package directory

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cafc"
	"cafc/internal/webgen"
	"cafc/internal/webgraph"
)

// buildServer clusters a generated corpus and serves it.
func buildServer(t *testing.T) (*Server, *webgen.Corpus) {
	t.Helper()
	c := webgen.Generate(webgen.Config{Seed: 21, FormPages: 120})
	var docs []cafc.Document
	html := make(map[string]string)
	for _, u := range c.FormPages {
		docs = append(docs, cafc.Document{URL: u, HTML: c.ByURL[u].HTML})
		html[u] = c.ByURL[u].HTML
	}
	corpus, err := cafc.NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	g := webgraph.FromCorpus(c)
	svc := webgraph.NewBacklinkService(g, 100, 0, 1)
	cl := corpus.ClusterCH(8, svc.Backlinks, c.RootOf, 1)
	labels := make([]string, len(cl.Clusters))
	for i, terms := range cl.TopTerms {
		labels[i] = strings.Join(terms, " ")
	}
	return Build(cl.Clusters, labels, html), c
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDirectoryEndpoints(t *testing.T) {
	s, _ := buildServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/")
	if code != 200 {
		t.Fatalf("front: %d", code)
	}
	if !strings.Contains(body, "/cluster?id=0") || !strings.Contains(body, "databases") {
		t.Errorf("front page incomplete:\n%s", body[:200])
	}

	code, body = get(t, ts, "/cluster?id=0")
	if code != 200 {
		t.Fatalf("cluster: %d", code)
	}
	if !strings.Contains(body, ".example") {
		t.Error("cluster page has no members")
	}

	code, _ = get(t, ts, "/cluster?id=999")
	if code != 404 {
		t.Errorf("bad cluster id -> %d, want 404", code)
	}
	code, _ = get(t, ts, "/cluster?id=junk")
	if code != 404 {
		t.Errorf("junk cluster id -> %d, want 404", code)
	}
	code, _ = get(t, ts, "/nosuchpath")
	if code != 404 {
		t.Errorf("unknown path -> %d, want 404", code)
	}
}

// TestDirectorySearch: the index a directory serves from ranks pages
// for a query (cmd/directoryd's JSON /search answers from it): an
// airfare query finds an airfare page among its hits, and a query of
// unknown terms finds none.
func TestDirectorySearch(t *testing.T) {
	s, c := buildServer(t)

	res, _ := s.snap.Search("cheap flights airfare", 20)
	airfareSeen := false
	for _, h := range res.Hits {
		if c.Labels[h.URL] == webgen.Airfare {
			airfareSeen = true
			break
		}
	}
	if !airfareSeen {
		t.Errorf("airfare query returned no airfare page among %d hits", len(res.Hits))
	}
	if res, _ := s.snap.Search("zzzz qqqq", 20); len(res.Hits) != 0 {
		t.Errorf("unknown-term query returned %d hits", len(res.Hits))
	}
}

func TestDatabaseSelection(t *testing.T) {
	s, _ := buildServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/select?q=hotel+rooms+availability")
	if code != 200 {
		t.Fatalf("select: %d", code)
	}
	if !strings.Contains(body, "matching sources") {
		t.Errorf("selection page incomplete:\n%s", body[:200])
	}
	_, body = get(t, ts, "/select?q=zzzz")
	if !strings.Contains(body, "no matching databases") {
		t.Error("no-match selection not handled")
	}
}

func TestBuildTitlesIndexed(t *testing.T) {
	s, _ := buildServer(t)
	for ci, entries := range s.Clusters {
		for _, e := range entries {
			if e.Title == "" {
				t.Fatalf("cluster %d: %s has no title", ci, e.URL)
			}
		}
	}
}
