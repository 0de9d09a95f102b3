package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"cafc"
	"cafc/internal/obs"
	"cafc/internal/text"
	"cafc/internal/webgen"
)

// searchLatency is one pass's latency summary, milliseconds, measured
// over the full seeded query pool.
type searchLatency struct {
	Queries int     `json:"queries"`
	QPS     float64 `json:"qps"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// searchQuality is the bit-reproducible core of the search benchmark:
// every field is a pure function of (seed, n) — retrieval coverage,
// facet purity against the generator's gold domain labels, and how
// often facet labels are drawn from the majority domain's own
// vocabulary.
type searchQuality struct {
	Queries        int      `json:"queries"`
	AvgHits        float64  `json:"avg_hits"`
	AvgFacets      float64  `json:"avg_facets"`
	FacetPurity    float64  `json:"facet_purity"`
	LabelAlignment float64  `json:"label_alignment"`
	ClusterLabels  []string `json:"cluster_labels"`
	ByteIdentical  bool     `json:"byte_identical"`
}

// searchResult is the BENCH_search.json schema: one seeded run of the
// search path over the full generated corpus — cold-index throughput,
// cached throughput, the cache hit ratio, and the quality block.
type searchResult struct {
	Seed      int64         `json:"seed"`
	FormPages int           `json:"form_pages"`
	K         int           `json:"k"`
	TopK      int           `json:"top_k"`
	Cold      searchLatency `json:"cold"`
	Cached    searchLatency `json:"cached"`
	HitRatio  float64       `json:"hit_ratio"`
	Quality   searchQuality `json:"quality"`
}

const searchTopK = 10

// searchBench builds a search-enabled directory over the complete
// generated corpus, replays the fixture's seeded query pool twice —
// once against the cold per-epoch cache, once warm — and scores the
// facets against webgen's gold labels. A second directory built from
// scratch at the same seed must answer every query with byte-identical
// JSON: the same contract the leader/follower test pins, checked here
// end to end.
func searchBench(n int, seed int64, reg *obs.Registry) (searchResult, error) {
	fx := newFixture(seed, n)
	if len(fx.queries) == 0 {
		return searchResult{}, fmt.Errorf("fixture generated no queries")
	}
	k := len(webgen.Domains)

	live, err := startSearchDirectory(fx.docs, k, seed, reg)
	if err != nil {
		return searchResult{}, err
	}
	defer live.Close()

	// Cold pass: every query is a first sight for this epoch's cache.
	coldLat := make([]float64, 0, len(fx.queries))
	coldBytes := make([][]byte, 0, len(fx.queries))
	results := make([]*cafc.SearchResult, 0, len(fx.queries))
	hits := 0
	coldStart := time.Now()
	for _, q := range fx.queries {
		t0 := time.Now()
		res, cached, err := live.Search(q, searchTopK)
		coldLat = append(coldLat, time.Since(t0).Seconds())
		if err != nil {
			return searchResult{}, err
		}
		if cached {
			return searchResult{}, fmt.Errorf("cold pass hit the cache on %q", q)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			return searchResult{}, err
		}
		coldBytes = append(coldBytes, buf)
		results = append(results, res)
	}
	coldElapsed := time.Since(coldStart)

	// Cached pass: the same queries against the same epoch must all hit.
	cachedLat := make([]float64, 0, len(fx.queries))
	cachedStart := time.Now()
	for _, q := range fx.queries {
		t0 := time.Now()
		_, cached, err := live.Search(q, searchTopK)
		cachedLat = append(cachedLat, time.Since(t0).Seconds())
		if err != nil {
			return searchResult{}, err
		}
		if cached {
			hits++
		}
	}
	cachedElapsed := time.Since(cachedStart)

	// Byte-identity contract: a fresh directory at the same seed answers
	// every query with the exact bytes of the first.
	identical := true
	live2, err := startSearchDirectory(fx.docs, k, seed, nil)
	if err != nil {
		return searchResult{}, err
	}
	for i, q := range fx.queries {
		res, _, err := live2.Search(q, searchTopK)
		if err != nil {
			live2.Close()
			return searchResult{}, err
		}
		buf, err := json.Marshal(res)
		if err != nil {
			live2.Close()
			return searchResult{}, err
		}
		if !bytes.Equal(buf, coldBytes[i]) {
			identical = false
			break
		}
	}
	live2.Close()

	return searchResult{
		Seed:      seed,
		FormPages: n,
		K:         k,
		TopK:      searchTopK,
		Cold:      summarizeSearch(coldLat, coldElapsed),
		Cached:    summarizeSearch(cachedLat, cachedElapsed),
		HitRatio:  float64(hits) / float64(len(fx.queries)),
		Quality:   scoreSearch(results, fx.labels, live.SearchLabels(), identical),
	}, nil
}

// startSearchDirectory founds a search-enabled directory over docs with
// no pending ingest — the whole corpus lands in the genesis epoch, so
// the index (and every query answer) is a pure function of (docs, seed).
func startSearchDirectory(docs []cafc.Document, k int, seed int64, reg *obs.Registry) (*cafc.Live, error) {
	corpus, err := cafc.NewCorpus(docs, cafc.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	cl := corpus.ClusterC(k, seed)
	return cafc.NewLive(corpus, docs, cl, cafc.LiveConfig{
		K: k, Seed: seed, BatchSize: 32, FlushInterval: time.Hour,
		Search: &cafc.SearchConfig{},
	}, cafc.Options{Metrics: reg})
}

// summarizeSearch reduces one pass's raw latencies to the report row.
func summarizeSearch(lat []float64, elapsed time.Duration) searchLatency {
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	return searchLatency{
		Queries: len(lat),
		QPS:     float64(len(lat)) / elapsed.Seconds(),
		P50MS:   nearestRank(sorted, 0.50) * 1000,
		P95MS:   nearestRank(sorted, 0.95) * 1000,
		P99MS:   nearestRank(sorted, 0.99) * 1000,
	}
}

// nearestRank is the nearest-rank quantile of an ascending-sorted
// sample: the element at index ⌊q·n⌋, clamped to the last.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// scoreSearch computes the quality block from the cold-pass results.
//
// Facet purity: each facet's member pages are looked up in the
// generator's gold labels; the facet's purity is the majority-domain
// share, and the reported number is the hit-weighted average over all
// facets of all queries. Label alignment: a facet's label "aligns" when
// at least one of its label terms stems into the majority domain's own
// generator vocabulary — i.e. the automatic labels speak the domain's
// language rather than boilerplate.
func scoreSearch(results []*cafc.SearchResult, gold map[string]string, clusterLabels []string, identical bool) searchQuality {
	var totalHits, totalFacets int
	var pure, sized float64
	aligned, facets := 0, 0
	for _, res := range results {
		totalHits += len(res.Hits)
		totalFacets += len(res.Facets)
		for _, f := range res.Facets {
			counts := make(map[string]int)
			for _, u := range f.URLs {
				counts[gold[u]]++
			}
			major, best := "", 0
			for d, c := range counts {
				if c > best || (c == best && d < major) {
					major, best = d, c
				}
			}
			pure += float64(best)
			sized += float64(len(f.URLs))
			facets++
			vocab := webgen.Vocabulary(webgen.Domain(major))
			for _, term := range f.Terms {
				ok := false
				for _, st := range text.Terms(term) {
					if vocab[st] {
						ok = true
						break
					}
				}
				if ok {
					aligned++
					break
				}
			}
		}
	}
	q := searchQuality{
		Queries:       len(results),
		ClusterLabels: clusterLabels,
		ByteIdentical: identical,
	}
	if len(results) > 0 {
		q.AvgHits = float64(totalHits) / float64(len(results))
		q.AvgFacets = float64(totalFacets) / float64(len(results))
	}
	if sized > 0 {
		q.FacetPurity = pure / sized
	}
	if facets > 0 {
		q.LabelAlignment = float64(aligned) / float64(facets)
	}
	return q
}

// writeSearchJSON renders the result table and writes the JSON report.
func writeSearchJSON(r searchResult, path string) error {
	fmt.Printf("%10s %10s %10s %10s %10s\n", "pass", "qps", "p50ms", "p95ms", "p99ms")
	for _, row := range []struct {
		name string
		lat  searchLatency
	}{{"cold", r.Cold}, {"cached", r.Cached}} {
		fmt.Printf("%10s %10.0f %10.3f %10.3f %10.3f\n",
			row.name, row.lat.QPS, row.lat.P50MS, row.lat.P95MS, row.lat.P99MS)
	}
	fmt.Printf("# hit ratio %.3f; avg hits %.1f facets %.1f; purity %.3f alignment %.3f; byte-identical %v\n",
		r.HitRatio, r.Quality.AvgHits, r.Quality.AvgFacets,
		r.Quality.FacetPurity, r.Quality.LabelAlignment, r.Quality.ByteIdentical)
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	return nil
}
