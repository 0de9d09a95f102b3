package crawler

import (
	"sort"
	"testing"

	"cafc/internal/webgen"
)

func TestCorpusFetcher(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 1, FormPages: 24})
	f := &CorpusFetcher{Corpus: c}
	u := c.FormPages[0]
	body, err := f.Fetch(u)
	if err != nil {
		t.Fatal(err)
	}
	if body != c.ByURL[u].HTML {
		t.Error("fetched body differs")
	}
	if _, err := f.Fetch("http://nowhere.example/"); err != ErrNotFound {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestServeCorpusOverHTTP(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 2, FormPages: 24})
	srv, client := ServeCorpus(c)
	defer srv.Close()
	f := &HTTPFetcher{Client: client}
	u := c.FormPages[3]
	body, err := f.Fetch(u)
	if err != nil {
		t.Fatal(err)
	}
	if body != c.ByURL[u].HTML {
		t.Error("HTTP body differs from corpus")
	}
	if _, err := f.Fetch("http://missing.example/x"); err == nil {
		t.Error("404 should be an error")
	}
}

func TestCrawlDiscoversFormPages(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 3, FormPages: 40})
	// Seed with directory + hub pages: BFS must reach form pages.
	var seeds []string
	for _, p := range c.Pages {
		if p.Kind == webgen.DirectoryPageKind || p.Kind == webgen.HubPageKind {
			seeds = append(seeds, p.URL)
		}
	}
	sort.Strings(seeds)
	cr := &Crawler{Fetcher: &CorpusFetcher{Corpus: c}, Config: Config{Workers: 2}}
	pages := cr.Crawl(seeds)
	if len(pages) == 0 {
		t.Fatal("crawl returned nothing")
	}
	fps := FormPages(pages)
	if len(fps) == 0 {
		t.Fatal("no searchable form pages discovered")
	}
	// Every discovered searchable page must be a known corpus form page
	// or a root page carrying a searchable form (roots only have the
	// newsletter form, which is non-searchable, so they must not appear).
	for _, p := range fps {
		kp := c.ByURL[p.URL]
		if kp == nil {
			t.Fatalf("crawled unknown page %s", p.URL)
		}
		if kp.Kind != webgen.FormPageKind {
			t.Errorf("%s (%s) judged searchable", p.URL, kp.Kind)
		}
	}
}

func TestCrawlOverRealHTTP(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 4, FormPages: 16})
	srv, client := ServeCorpus(c)
	defer srv.Close()
	var seeds []string
	for _, p := range c.Pages {
		if p.Kind == webgen.DirectoryPageKind {
			seeds = append(seeds, p.URL)
		}
	}
	cr := &Crawler{Fetcher: &HTTPFetcher{Client: client}, Config: Config{Workers: 3}}
	pages := cr.Crawl(seeds)
	if len(FormPages(pages)) == 0 {
		t.Fatal("HTTP crawl found no form pages")
	}
}

func TestCrawlRespectsMaxPages(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 5, FormPages: 60})
	var seeds []string
	for _, p := range c.Pages {
		if p.Kind == webgen.DirectoryPageKind {
			seeds = append(seeds, p.URL)
		}
	}
	cr := &Crawler{Fetcher: &CorpusFetcher{Corpus: c}, Config: Config{MaxPages: 5}}
	pages := cr.Crawl(seeds)
	if len(pages) > 5 {
		t.Errorf("crawled %d pages, cap was 5", len(pages))
	}
}

func TestCrawlRespectsMaxDepth(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 6, FormPages: 24})
	var seed string
	for _, p := range c.Pages {
		if p.Kind == webgen.DirectoryPageKind {
			seed = p.URL
			break
		}
	}
	cr := &Crawler{Fetcher: &CorpusFetcher{Corpus: c}, Config: Config{MaxDepth: 1}}
	pages := cr.Crawl([]string{seed})
	for _, p := range pages {
		if p.Depth > 1 {
			t.Errorf("page %s at depth %d", p.URL, p.Depth)
		}
	}
}

func TestCrawlSkipsFetchErrors(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 7, FormPages: 16})
	var seed string
	for _, p := range c.Pages {
		if p.Kind == webgen.DirectoryPageKind {
			seed = p.URL
			break
		}
	}
	cr := &Crawler{Fetcher: &CorpusFetcher{Corpus: c}}
	pages := cr.Crawl([]string{seed, "http://broken.example/404"})
	if len(pages) == 0 {
		t.Fatal("one broken seed killed the crawl")
	}
	for _, p := range pages {
		if p.URL == "http://broken.example/404" {
			t.Error("broken page in results")
		}
	}
}

func TestCrawlDedupes(t *testing.T) {
	c := webgen.Generate(webgen.Config{Seed: 8, FormPages: 16})
	var seeds []string
	for _, p := range c.Pages {
		seeds = append(seeds, p.URL)
	}
	// Crawl with every page as a seed (plus internal links): each URL
	// must appear at most once.
	cr := &Crawler{Fetcher: &CorpusFetcher{Corpus: c}}
	pages := cr.Crawl(seeds)
	seen := map[string]bool{}
	for _, p := range pages {
		if seen[p.URL] {
			t.Fatalf("duplicate crawl of %s", p.URL)
		}
		seen[p.URL] = true
	}
}
