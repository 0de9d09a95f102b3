// Package crawler implements the focused-crawling substrate the paper
// assumes as its input stage [3]: a concurrent BFS crawler over net/http
// that discovers pages, extracts links, and admits only pages containing
// searchable forms. A companion in-process server makes a generated
// corpus reachable over real HTTP so the full fetch/parse path is
// exercised.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"cafc/internal/form"
	"cafc/internal/htmlx"
	"cafc/internal/obs"
	"cafc/internal/webgen"
)

// Fetcher retrieves the body of a URL.
type Fetcher interface {
	Fetch(url string) (body string, err error)
}

// ContextFetcher is a Fetcher that honors request cancellation. Crawl
// and RetryFetcher use it when available, so hung servers can be
// abandoned instead of stalling a crawl shard forever.
type ContextFetcher interface {
	Fetcher
	FetchContext(ctx context.Context, url string) (body string, err error)
}

// fetchContext dispatches to FetchContext when the fetcher supports it.
func fetchContext(f Fetcher, ctx context.Context, u string) (string, error) {
	if cf, ok := f.(ContextFetcher); ok {
		return cf.FetchContext(ctx, u)
	}
	return f.Fetch(u)
}

// StatusError is returned by HTTPFetcher for non-200 responses, so
// retry policy can distinguish permanent client errors (404) from
// transient server-side ones (503, 429).
type StatusError struct {
	URL  string
	Code int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("crawler: GET %s: status %d", e.URL, e.Code)
}

// defaultClient bounds every request of a zero-value HTTPFetcher: a hung
// server must never stall a crawl shard forever.
var defaultClient = &http.Client{Timeout: 30 * time.Second}

// HTTPFetcher fetches over an http.Client with a response-size cap.
type HTTPFetcher struct {
	// Client is the underlying client. Nil selects a shared default
	// client with a 30s overall timeout (not http.DefaultClient, which
	// has none).
	Client *http.Client
	// MaxBody caps the bytes read per response (0 = 1 MiB).
	MaxBody int64
}

// Fetch implements Fetcher.
func (f *HTTPFetcher) Fetch(u string) (string, error) {
	return f.FetchContext(context.Background(), u)
}

// FetchContext implements ContextFetcher: the request is built with the
// context, so cancellation and deadlines abort the dial, the wait for
// headers, and the body read.
func (f *HTTPFetcher) FetchContext(ctx context.Context, u string) (string, error) {
	client := f.Client
	if client == nil {
		client = defaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", &StatusError{URL: u, Code: resp.StatusCode}
	}
	maxBody := f.MaxBody
	if maxBody == 0 {
		maxBody = 1 << 20
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// CorpusFetcher serves a generated corpus from memory (no network).
type CorpusFetcher struct {
	Corpus *webgen.Corpus
}

// ErrNotFound is returned for URLs outside the corpus.
var ErrNotFound = errors.New("crawler: page not found")

// Fetch implements Fetcher.
func (f *CorpusFetcher) Fetch(u string) (string, error) {
	if p := f.Corpus.ByURL[u]; p != nil {
		return p.HTML, nil
	}
	return "", ErrNotFound
}

// ServeCorpus exposes a corpus over real HTTP. It returns the test server
// and an http.Client whose transport resolves every host to the server's
// listener, so corpus URLs like http://www.jetquest0.example/search.html
// fetch transparently. Close the server when done.
//
// Form submissions (GET /results) are answered against the site's
// simulated database records, so post-query probing techniques can be
// exercised end to end: records matching any submitted value are listed;
// a submission with no usable values yields an empty result page.
func ServeCorpus(c *webgen.Corpus) (*httptest.Server, *http.Client) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u := "http://" + r.Host + r.URL.Path
		if p := c.ByURL[u]; p != nil {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_, _ = io.WriteString(w, p.HTML)
			return
		}
		if r.URL.Path == "/results" {
			serveResults(w, r, c)
			return
		}
		http.NotFound(w, r)
	})
	srv := httptest.NewServer(handler)
	addr := srv.Listener.Addr().String()
	client := &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
		},
	}
	return srv, client
}

// serveResults answers a simulated database query for the site owning
// the request's host.
func serveResults(w http.ResponseWriter, r *http.Request, c *webgen.Corpus) {
	formURL := "http://" + r.Host + "/search.html"
	records, ok := c.Records[formURL]
	if !ok {
		http.NotFound(w, r)
		return
	}
	var terms []string
	for _, vs := range r.URL.Query() {
		for _, v := range vs {
			if v != "" {
				terms = append(terms, v)
			}
		}
	}
	sort.Strings(terms)
	matches := webgen.SearchRecords(records, strings.Join(terms, " "))
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<html><head><title>Search Results</title></head><body>\n")
	if len(matches) == 0 {
		b.WriteString("<p>Your search returned no results. Please refine your query and try again.</p>\n")
	} else {
		fmt.Fprintf(&b, "<p>%d results found</p>\n<ul>\n", len(matches))
		for i, m := range matches {
			if i == 25 {
				break
			}
			fmt.Fprintf(&b, "<li>%s</li>\n", htmlx.EscapeText(m))
		}
		b.WriteString("</ul>\n")
	}
	b.WriteString("</body></html>\n")
	_, _ = io.WriteString(w, b.String())
}

// Page is one crawled document.
type Page struct {
	URL   string
	HTML  string
	Links []string
	// Searchable reports whether the page contains a searchable form.
	Searchable bool
	// Depth is the BFS distance from the seed set.
	Depth int
}

// Config tunes a crawl.
type Config struct {
	// MaxPages bounds the number of fetched pages (0 = 10,000).
	MaxPages int
	// MaxDepth bounds BFS depth (0 = 10).
	MaxDepth int
	// Workers is the number of concurrent fetchers (0 = 4).
	Workers int
	// Metrics, when non-nil, receives crawl telemetry: per-fetch latency
	// (crawler_fetch_seconds) and outcome counts, link extraction and
	// frontier dedup counters, searchable-form admissions, and the
	// frontier size per BFS wave. The traversal itself is unchanged.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxPages == 0 {
		c.MaxPages = 10000
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 10
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	return c
}

// Crawler performs BFS crawls with a Fetcher.
type Crawler struct {
	Fetcher Fetcher
	Config  Config
}

// Crawl fetches from the seed URLs outward and returns every successfully
// fetched page. Fetch errors are skipped (the live web is lossy); the
// traversal is deterministic for a deterministic Fetcher because frontier
// expansion is breadth-first in discovery order.
func (cr *Crawler) Crawl(seeds []string) []Page {
	return cr.CrawlContext(context.Background(), seeds)
}

// CrawlContext is Crawl with a context: when the Fetcher implements
// ContextFetcher every fetch inherits ctx, so cancelling it abandons
// in-flight requests and stops the crawl at the next wave boundary.
func (cr *Crawler) CrawlContext(ctx context.Context, seeds []string) []Page {
	cfg := cr.Config.withDefaults()
	// Fetch-health telemetry. Handles are nil (no-op) without a
	// registry; the counters and histogram are atomic, so the fetch
	// goroutines record without coordination.
	var (
		fetchSeconds *obs.Histogram
		fetchOK      *obs.Counter
		fetchErr     *obs.Counter
		linksSeen    *obs.Counter
		linksDeduped *obs.Counter
		searchable   *obs.Counter
		crawled      *obs.Counter
		frontierSize *obs.Gauge
		depthGauge   *obs.Gauge
	)
	if reg := cfg.Metrics; reg != nil {
		fetchSeconds = reg.Histogram("crawler_fetch_seconds", obs.DurationBuckets)
		fetchOK = reg.Counter("crawler_fetch_total", "status", "ok")
		fetchErr = reg.Counter("crawler_fetch_total", "status", "error")
		linksSeen = reg.Counter("crawler_links_extracted_total")
		linksDeduped = reg.Counter("crawler_links_deduped_total")
		searchable = reg.Counter("crawler_searchable_pages_total")
		crawled = reg.Counter("crawler_pages_crawled_total")
		frontierSize = reg.Gauge("crawler_frontier_size")
		depthGauge = reg.Gauge("crawler_depth")
	}
	type job struct {
		url   string
		depth int
	}
	visited := make(map[string]bool)
	var out []Page
	frontier := make([]job, 0, len(seeds))
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			frontier = append(frontier, job{s, 0})
		}
	}
	for len(frontier) > 0 && len(out) < cfg.MaxPages && ctx.Err() == nil {
		batch := frontier
		frontier = nil
		frontierSize.Set(float64(len(batch)))
		depthGauge.Set(float64(batch[0].depth))
		// Fetch the batch concurrently, preserving order in results.
		results := make([]*Page, len(batch))
		sem := make(chan struct{}, cfg.Workers)
		var wg sync.WaitGroup
		for i, j := range batch {
			// Stop spawning once the page budget cannot admit more.
			if len(out)+i >= cfg.MaxPages {
				break
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, j job) {
				defer wg.Done()
				defer func() { <-sem }()
				var t0 time.Time
				if fetchSeconds != nil {
					t0 = time.Now()
				}
				body, err := fetchContext(cr.Fetcher, ctx, j.url)
				fetchSeconds.ObserveSince(t0)
				if err != nil {
					fetchErr.Inc()
					return
				}
				fetchOK.Inc()
				p := &Page{URL: j.url, HTML: body, Depth: j.depth}
				base, err := url.Parse(j.url)
				if err == nil {
					doc := htmlx.Parse(body)
					for _, l := range htmlx.ExtractLinks(doc, base) {
						p.Links = append(p.Links, l.URL)
					}
					for _, f := range form.ExtractForms(doc) {
						if form.IsSearchable(f) {
							p.Searchable = true
							break
						}
					}
				}
				linksSeen.Add(int64(len(p.Links)))
				if p.Searchable {
					searchable.Inc()
				}
				results[i] = p
			}(i, j)
		}
		wg.Wait()
		for _, p := range results {
			if p == nil {
				continue
			}
			if len(out) >= cfg.MaxPages {
				break
			}
			out = append(out, *p)
			crawled.Inc()
			if p.Depth >= cfg.MaxDepth {
				continue
			}
			for _, l := range p.Links {
				if !visited[l] {
					visited[l] = true
					frontier = append(frontier, job{l, p.Depth + 1})
				} else {
					linksDeduped.Inc()
				}
			}
		}
	}
	return out
}

// FormPages filters a crawl result down to the searchable form pages —
// the input set for clustering.
func FormPages(pages []Page) []Page {
	var out []Page
	for _, p := range pages {
		if p.Searchable {
			out = append(out, p)
		}
	}
	return out
}
