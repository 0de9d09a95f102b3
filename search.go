package cafc

import (
	"errors"
	"sync/atomic"

	"cafc/internal/search"
	"cafc/internal/stream"
	"cafc/internal/vector"
)

// SearchConfig enables the retrieval subsystem on a live directory: a
// compiled inverted index grown incrementally with the corpus, frozen
// per epoch so it swaps atomically with the classifier. Zero values
// select the defaults noted in search.Options.
type SearchConfig struct {
	// MaxK caps the per-query result count (0 = 50).
	MaxK int
	// CacheSize bounds each epoch's result cache (0 = 1024).
	CacheSize int
	// MaxFacets caps the dynamic facet count per result set (0 = 6).
	MaxFacets int
}

// SearchHit, SearchFacet, SearchResult, SearchClusterHit and
// SearchSnapshot (one epoch's frozen index) re-export the retrieval
// types at the public surface, as QualitySnapshot does for the quality
// monitor.
type (
	SearchHit        = search.Hit
	SearchFacet      = search.Facet
	SearchResult     = search.Result
	SearchClusterHit = search.ClusterHit
	SearchSnapshot   = search.Snapshot
)

// ErrSearchDisabled is returned by Search on a Live built without
// LiveConfig.Search.
var ErrSearchDisabled = errors.New("cafc: search not enabled (set LiveConfig.Search)")

// ErrSearchCold is returned by Search before the first epoch publishes
// (readiness should gate on Epoch() != nil, same as Classify).
var ErrSearchCold = errors.New("cafc: search index cold: no published epoch yet")

// searcher owns the live index. The builder is written only from the
// epoch-publish path (ingest worker on leaders, replication tailer on
// followers, the constructor goroutine during genesis and replay — all
// single-threaded), while the published snapshot is read lock-free.
type searcher struct {
	b    *search.Builder
	snap atomic.Pointer[search.Snapshot]
	opts search.Options
	// terms is sync's scratch list of one page's weighted PC terms.
	terms []vector.WeightedTerm
}

// sync brings the index up to a freshly published epoch: append exactly
// the pages beyond the builder's cursor (never a rebuild), then freeze a
// snapshot carrying the epoch's cluster assignment. Each page is indexed
// from its term record, one weighted term per distinct PC term carrying
// its summed LOC, which the index sums to the bits the page's
// occurrence list gives; nothing is parsed.
func (s *searcher) sync(e *stream.Epoch) {
	for i := s.b.Len(); i < len(e.Model.Pages); i++ {
		p := e.Model.Pages[i]
		s.terms = p.Rec.AppendPC(s.terms[:0])
		s.b.Add(p.URL, p.Rec.Title, s.terms)
	}
	s.snap.Store(s.b.Freeze(e.Seq, e.Result.Assign, e.Result.K, s.opts))
}

// Search runs a ranked top-k query with labeled dynamic facets against
// the current epoch's index (k <= 0 selects the default 10). The bool
// reports whether the result was served from the epoch's cache; the
// result itself is identical either way, so replicas stay
// byte-identical regardless of cache state. Results are immutable.
func (l *Live) Search(q string, k int) (*SearchResult, bool, error) {
	snap, err := l.searchSnapshot()
	if err != nil {
		return nil, false, err
	}
	r, cached := snap.Search(q, k)
	return r, cached, nil
}

// SearchJSON is Search answering with the result's JSON encoding, the
// bytes json.NewEncoder(w).Encode(result) writes. The epoch's cache
// keeps each result's encoding, so a repeated query is not re-encoded.
// The bytes are shared: callers must not modify them.
func (l *Live) SearchJSON(q string, k int) ([]byte, bool, error) {
	snap, err := l.searchSnapshot()
	if err != nil {
		return nil, false, err
	}
	b, cached := snap.SearchJSON(q, k)
	return b, cached, nil
}

// SearchClusters ranks directory clusters by aggregate retrieval score
// — the paper's database-selection primitive (which cluster of
// hidden-web sources best answers the query).
func (l *Live) SearchClusters(q string, limit int) ([]SearchClusterHit, error) {
	snap, err := l.searchSnapshot()
	if err != nil {
		return nil, err
	}
	return snap.SearchClusters(q, limit), nil
}

// searchSnapshot returns the current epoch's search index.
func (l *Live) searchSnapshot() (*search.Snapshot, error) {
	if l.search == nil {
		return nil, ErrSearchDisabled
	}
	snap := l.search.snap.Load()
	if snap == nil {
		return nil, ErrSearchCold
	}
	return snap, nil
}

// SearchLabels returns the current epoch's per-cluster discriminative
// labels (nil without search or before the first epoch) — the upgrade
// from "cluster 3" to a human-readable name in the directory UI.
func (l *Live) SearchLabels() []string {
	if l.search == nil {
		return nil
	}
	if snap := l.search.snap.Load(); snap != nil {
		return snap.ClusterLabels()
	}
	return nil
}

// SearchEpoch returns the epoch the published search snapshot was
// frozen at (0 while cold or disabled). It always matches
// AppliedEpoch once warm: the snapshot swaps in the same publish step.
func (l *Live) SearchEpoch() int64 {
	if l.search == nil {
		return 0
	}
	if snap := l.search.snap.Load(); snap != nil {
		return snap.Epoch
	}
	return 0
}
