package search

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"cafc/internal/obs"
	"cafc/internal/text"
	"cafc/internal/vector"
)

// Hit is one ranked retrieval result.
type Hit struct {
	URL          string  `json:"url"`
	Title        string  `json:"title"`
	Cluster      int     `json:"cluster"`
	ClusterLabel string  `json:"cluster_label,omitempty"`
	Score        float64 `json:"score"`

	// doc is the internal document ID, carried for facet clustering.
	doc uint32
}

// Facet is one dynamic result group: a search-time cluster of the hit
// set with automatically extracted discriminative labels.
type Facet struct {
	Label string   `json:"label"`
	Terms []string `json:"terms"`
	Size  int      `json:"size"`
	URLs  []string `json:"urls"`
}

// Result is one complete search response. It is immutable once built
// (results are shared through the cache), and its JSON encoding is
// byte-deterministic for a fixed index state — the property the
// leader/follower byte-identity test pins.
type Result struct {
	Query  string  `json:"query"`
	Epoch  int64   `json:"epoch"`
	K      int     `json:"k"`
	Total  int     `json:"total"`
	Hits   []Hit   `json:"hits"`
	Facets []Facet `json:"facets,omitempty"`
}

// Snapshot is the frozen, query-side view of the index at one epoch.
// It is immutable and safe for any number of concurrent readers; the
// builder keeps growing underneath without ever mutating state a
// snapshot can observe.
type Snapshot struct {
	// Epoch is the published epoch this snapshot belongs to.
	Epoch int64

	reg     *obs.Registry
	opts    Options
	dict    *vector.Dict
	docs    []Meta
	fwd     []vector.Compiled
	post    [][]posting
	surface []string
	assign  []int
	k       int
	labels  []string
	cache   *cache
}

// Docs returns the number of searchable documents.
func (s *Snapshot) Docs() int { return len(s.docs) }

// Terms returns the vocabulary size.
func (s *Snapshot) Terms() int { return len(s.post) }

// ClusterLabels returns the per-cluster discriminative labels computed
// at freeze time (top in-cluster vs. background terms, surfaced).
func (s *Snapshot) ClusterLabels() []string { return s.labels }

// Members returns each cluster's documents (URL and title) in document
// order, taken from the frozen assignment. Documents assigned outside
// [0, k) belong to no cluster.
func (s *Snapshot) Members() [][]Meta {
	out := make([][]Meta, s.k)
	for d, c := range s.assign {
		if c >= 0 && c < s.k {
			out[c] = append(out[c], s.docs[d])
		}
	}
	return out
}

// idf is Equation 1's corpus factor resolved against this snapshot:
// log(1 + N/n_t). The +1 keeps single-document corpora searchable, as
// the legacy index did.
func (s *Snapshot) idf(t uint32) float64 {
	n := len(s.post[t])
	if n == 0 {
		return 0
	}
	return math.Log(1 + float64(len(s.docs))/float64(n))
}

// Search runs a ranked top-k query with dynamic facets, serving a
// repeated (query, k) from the snapshot's cache. The second return
// reports whether the result came from the cache. Results are immutable
// — callers must not modify them.
func (s *Snapshot) Search(q string, k int) (*Result, bool) {
	if k <= 0 {
		k = 10
	}
	if k > s.opts.MaxK {
		k = s.opts.MaxK
	}
	s.reg.Counter("search_requests_total").Inc()
	key := strconv.Itoa(k) + "\x00" + q
	if r, ok := s.cache.get(key); ok {
		s.reg.Counter("search_cache_hits_total").Inc()
		return r, true
	}
	s.reg.Counter("search_cache_misses_total").Inc()
	t0 := time.Now()
	r := s.search(q, k)
	s.reg.Histogram("search_latency_seconds", obs.DurationBuckets).Observe(time.Since(t0).Seconds())
	s.cache.put(key, r)
	return r, false
}

// search is the uncached query path: score, rank, cut to k, facet.
func (s *Snapshot) search(q string, k int) *Result {
	hits := s.rank(q)
	r := &Result{Query: q, Epoch: s.Epoch, K: k, Total: len(hits)}
	if len(hits) > k {
		hits = hits[:k]
	}
	r.Hits = hits
	r.Facets = s.facets(hits)
	return r
}

// rank scores every matching document and returns the full descending
// ranking. Per-document partial sums accumulate in ascending-term-ID
// order (the outer loop walks the sorted query IDs), so the float sums
// are bit-identical across runs and replicas — the same discipline as
// vector.Postings.Dots.
func (s *Snapshot) rank(q string) []Hit {
	qIDs, qTFs := s.queryVector(q)
	if len(qIDs) == 0 {
		return nil
	}
	scores := make([]float64, len(s.docs))
	var touched []uint32
	for i, t := range qIDs {
		idf := s.idf(t)
		if idf == 0 {
			continue
		}
		// Query weight qtf·idf times document weight LOC·TF·idf — the
		// inner product of Equation-1 vectors on both sides.
		qw := qTFs[i] * idf * idf
		for _, p := range s.post[t] {
			if scores[p.doc] == 0 {
				touched = append(touched, p.doc)
			}
			scores[p.doc] += qw * p.w
		}
	}
	hits := make([]Hit, 0, len(touched))
	for _, d := range touched {
		sc := scores[d]
		if n := s.docs[d].norm; n > 0 {
			sc /= n
		}
		h := Hit{
			URL:     s.docs[d].URL,
			Title:   s.docs[d].Title,
			Cluster: -1,
			Score:   sc,
			doc:     d,
		}
		if int(d) < len(s.assign) {
			h.Cluster = s.assign[d]
		}
		if h.Cluster >= 0 && h.Cluster < len(s.labels) {
			h.ClusterLabel = s.labels[h.Cluster]
		}
		hits = append(hits, h)
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].doc < hits[j].doc
	})
	return hits
}

// queryVector tokenizes the query through the paper's term pipeline and
// resolves it against the snapshot dictionary: sorted unique term IDs
// with their query term frequencies. Unknown terms drop out.
func (s *Snapshot) queryVector(q string) ([]uint32, []float64) {
	tf := make(map[uint32]float64)
	for _, t := range text.Terms(q) {
		if id, ok := s.dict.ID(t); ok {
			tf[id]++
		}
	}
	ids := make([]uint32, 0, len(tf))
	for id := range tf {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	tfs := make([]float64, len(ids))
	for i, id := range ids {
		tfs[i] = tf[id]
	}
	return ids, tfs
}

// ClusterHit aggregates retrieval evidence per directory cluster — the
// database-selection view the paper's Section 6 proposes: which groups
// of hidden-web databases best match the query.
type ClusterHit struct {
	Cluster int     `json:"cluster"`
	Label   string  `json:"label"`
	Score   float64 `json:"score"`
	Matches int     `json:"matches"`
	Best    Hit     `json:"best"`
}

// SearchClusters ranks clusters by the sum of their members' retrieval
// scores, best-scoring cluster first (ties: lower cluster ID).
func (s *Snapshot) SearchClusters(q string, limit int) []ClusterHit {
	hits := s.rank(q)
	if s.k <= 0 {
		return nil
	}
	agg := make([]ClusterHit, s.k)
	for i := range agg {
		agg[i].Cluster = i
		if i < len(s.labels) {
			agg[i].Label = s.labels[i]
		}
	}
	for _, h := range hits {
		if h.Cluster < 0 || h.Cluster >= s.k {
			continue
		}
		ch := &agg[h.Cluster]
		// hits arrive ranked, so the first member seen is the best one.
		if ch.Matches == 0 {
			ch.Best = h
		}
		ch.Score += h.Score
		ch.Matches++
	}
	out := make([]ClusterHit, 0, len(agg))
	for _, ch := range agg {
		if ch.Matches > 0 {
			out = append(out, ch)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Cluster < out[j].Cluster
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// cache is the per-snapshot result cache. Keying results to a snapshot
// (rather than a global cache keyed by epoch) makes invalidation on
// epoch swap structural: the next snapshot starts with an empty cache,
// and cached results can never outlive the epoch they were computed at.
// When full it clears wholesale — bounded memory with deterministic
// behavior, no eviction-order dependence.
type cache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*Result
}

func newCache(capacity int) *cache {
	return &cache{cap: capacity, m: make(map[string]*Result)}
}

func (c *cache) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	return r, ok
}

func (c *cache) put(key string, r *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.cap {
		c.m = make(map[string]*Result)
	}
	c.m[key] = r
}
