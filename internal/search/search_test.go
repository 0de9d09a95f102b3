package search

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cafc/internal/form"
	"cafc/internal/text"
	"cafc/internal/vector"
)

// testDoc is a synthetic input document for builder tests.
type testDoc struct {
	url     string
	title   string
	terms   []vector.WeightedTerm
	cluster int
}

// wt builds a LOC-weighted occurrence list from (term, loc) pairs given
// as alternating values: wt("hotel", 3, "rate", 1).
func wt(kv ...interface{}) []vector.WeightedTerm {
	var out []vector.WeightedTerm
	for i := 0; i < len(kv); i += 2 {
		out = append(out, vector.WeightedTerm{
			Term: kv[i].(string),
			Loc:  float64(kv[i+1].(int)),
		})
	}
	return out
}

// corpusDocs is a tiny two-topic corpus: hotels and flights, with one
// crossover page.
func corpusDocs() []testDoc {
	return []testDoc{
		{"u/h1", "Hotel Rooms", wt("hotel", 3, "room", 3, "rate", 1, "citi", 1), 0},
		{"u/h2", "City Hotels", wt("hotel", 3, "citi", 3, "room", 1, "suit", 1), 0},
		{"u/h3", "Suite Hotel Deals", wt("hotel", 3, "suit", 3, "deal", 1), 0},
		{"u/f1", "Cheap Flights", wt("flight", 3, "cheap", 3, "fare", 1), 1},
		{"u/f2", "Flight Fares", wt("flight", 3, "fare", 3, "airlin", 1), 1},
		{"u/f3", "Airline Tickets", wt("airlin", 3, "ticket", 3, "flight", 1), 1},
		{"u/x1", "Hotel Flight Bundles", wt("hotel", 2, "flight", 2, "bundl", 1), 0},
	}
}

func buildSnapshot(t *testing.T, docs []testDoc) *Snapshot {
	t.Helper()
	b := NewBuilder(nil)
	assign := make([]int, len(docs))
	for i, d := range docs {
		b.Add(d.url, d.title, d.terms)
		assign[i] = d.cluster
	}
	return b.Freeze(1, assign, 2, Options{})
}

// referenceScores is an order-free map-based reimplementation of the
// scoring formula — the retired legacy index's approach, kept as a
// cross-check that the compiled path computes the same function.
func referenceScores(docs []testDoc, query string) map[string]float64 {
	n := float64(len(docs))
	df := make(map[string]int)
	weights := make([]map[string]float64, len(docs))
	norms := make([]float64, len(docs))
	for i, d := range docs {
		w := make(map[string]float64)
		for _, o := range d.terms {
			w[o.Term] += o.Loc
		}
		var sum float64
		for t, v := range w {
			df[t]++
			sum += v * v
		}
		weights[i] = w
		norms[i] = math.Sqrt(sum)
	}
	qtf := make(map[string]float64)
	for _, t := range text.Terms(query) {
		qtf[t]++
	}
	out := make(map[string]float64)
	for i, d := range docs {
		var score float64
		// Walk terms in sorted order to mirror the accumulation
		// discipline (the values should agree bit-for-bit).
		terms := make([]string, 0, len(qtf))
		for t := range qtf {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		for _, t := range terms {
			if df[t] == 0 || weights[i][t] == 0 {
				continue
			}
			idf := math.Log(1 + n/float64(df[t]))
			score += qtf[t] * idf * idf * weights[i][t]
		}
		if score > 0 {
			out[d.url] = score / norms[i]
		}
	}
	return out
}

func TestSearchMatchesReference(t *testing.T) {
	docs := corpusDocs()
	s := buildSnapshot(t, docs)
	for _, q := range []string{"hotel", "cheap flights", "hotel flight", "suite deals", "airline"} {
		r, cached := s.Search(q, 50)
		if cached {
			t.Fatalf("%q: first query served from cache", q)
		}
		want := referenceScores(docs, q)
		if r.Total != len(want) {
			t.Fatalf("%q: total = %d, want %d", q, r.Total, len(want))
		}
		for _, h := range r.Hits {
			if h.Score != want[h.URL] {
				t.Fatalf("%q: score(%s) = %v, reference %v", q, h.URL, h.Score, want[h.URL])
			}
		}
	}
}

func TestSearchRankingAndMetadata(t *testing.T) {
	s := buildSnapshot(t, corpusDocs())
	r, _ := s.Search("hotel", 3)
	if len(r.Hits) != 3 || r.Total != 4 {
		t.Fatalf("hits=%d total=%d, want 3 of 4", len(r.Hits), r.Total)
	}
	for i := 1; i < len(r.Hits); i++ {
		if r.Hits[i-1].Score < r.Hits[i].Score {
			t.Fatalf("ranking not descending: %+v", r.Hits)
		}
	}
	for _, h := range r.Hits {
		if !strings.HasPrefix(h.URL, "u/h") && h.URL != "u/x1" {
			t.Fatalf("non-hotel page in hotel results: %+v", h)
		}
		if h.Cluster != 0 {
			t.Fatalf("hit %s cluster = %d, want 0", h.URL, h.Cluster)
		}
		if h.ClusterLabel == "" {
			t.Fatalf("hit %s has no cluster label", h.URL)
		}
		if h.Title == "" {
			t.Fatalf("hit %s has no title", h.URL)
		}
	}
}

func TestSearchEmptyAndUnknown(t *testing.T) {
	s := buildSnapshot(t, corpusDocs())
	if r, _ := s.Search("", 10); r.Total != 0 || len(r.Hits) != 0 {
		t.Fatalf("empty query returned hits: %+v", r)
	}
	if r, _ := s.Search("zzz unknownterm", 10); r.Total != 0 {
		t.Fatalf("unknown terms returned hits: %+v", r)
	}
}

func TestSearchKClamp(t *testing.T) {
	b := NewBuilder(nil)
	for i := 0; i < 80; i++ {
		b.Add(fmt.Sprintf("u/%d", i), "Page", wt("common", 1, fmt.Sprintf("t%d", i), 1))
	}
	s := b.Freeze(1, make([]int, 80), 1, Options{MaxK: 25})
	r, _ := s.Search("common", 1000)
	if len(r.Hits) != 25 {
		t.Fatalf("k clamp: got %d hits, want MaxK=25", len(r.Hits))
	}
	if r.Total != 80 {
		t.Fatalf("total = %d, want 80", r.Total)
	}
	r, _ = s.Search("common", 0)
	if len(r.Hits) != 10 {
		t.Fatalf("default k: got %d hits, want 10", len(r.Hits))
	}
}

// TestIncrementalAppendBitIdentical pins the core freeze property: an
// index grown batch by batch (freezing between batches, like the live
// epoch path) is bit-identical to one built in a single shot — scores,
// ranking, facets, labels.
func TestIncrementalAppendBitIdentical(t *testing.T) {
	docs := corpusDocs()
	assign := make([]int, len(docs))
	for i, d := range docs {
		assign[i] = d.cluster
	}

	one := NewBuilder(nil)
	for _, d := range docs {
		one.Add(d.url, d.title, d.terms)
	}
	full := one.Freeze(3, assign, 2, Options{})

	inc := NewBuilder(nil)
	var grown *Snapshot
	for i, d := range docs {
		inc.Add(d.url, d.title, d.terms)
		grown = inc.Freeze(int64(i+1), assign[:i+1], 2, Options{})
	}
	// Refreeze at the final epoch so the snapshots are directly
	// comparable (epoch numbers aside, every earlier freeze must not
	// have disturbed the final state).
	grown = inc.Freeze(3, assign, 2, Options{})

	for _, q := range []string{"hotel", "cheap flights", "airline tickets", "hotel flight"} {
		a, _ := full.Search(q, 50)
		b, _ := grown.Search(q, 50)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%q: batch and incremental snapshots diverge:\n%+v\nvs\n%+v", q, a, b)
		}
		for i := range a.Hits {
			if math.Float64bits(a.Hits[i].Score) != math.Float64bits(b.Hits[i].Score) {
				t.Fatalf("%q: score bits diverge at rank %d", q, i)
			}
		}
	}
	if !reflect.DeepEqual(full.ClusterLabels(), grown.ClusterLabels()) {
		t.Fatalf("cluster labels diverge: %v vs %v", full.ClusterLabels(), grown.ClusterLabels())
	}
}

// TestSearchDeterminism pins byte-identical responses across two
// independent builds — the satellite the retired map-order index could
// never satisfy.
func TestSearchDeterminism(t *testing.T) {
	docs := corpusDocs()
	a := buildSnapshot(t, docs)
	b := buildSnapshot(t, docs)
	for _, q := range []string{"hotel", "flight fare", "city suite deals", "hotel flight bundles"} {
		ra, _ := a.Search(q, 50)
		rb, _ := b.Search(q, 50)
		ja, err := json.Marshal(ra)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(rb)
		if err != nil {
			t.Fatal(err)
		}
		if string(ja) != string(jb) {
			t.Fatalf("%q: responses not byte-identical:\n%s\nvs\n%s", q, ja, jb)
		}
	}
}

func TestSnapshotImmutableUnderAppend(t *testing.T) {
	docs := corpusDocs()
	b := NewBuilder(nil)
	assign := make([]int, len(docs))
	for i, d := range docs {
		assign[i] = d.cluster
	}
	for _, d := range docs[:4] {
		b.Add(d.url, d.title, d.terms)
	}
	old := b.Freeze(1, assign[:4], 2, Options{})
	before, _ := old.Search("hotel", 50)

	// Keep growing: the old snapshot must not observe the new documents.
	for _, d := range docs[4:] {
		b.Add(d.url, d.title, d.terms)
	}
	b.Freeze(2, assign, 2, Options{})
	after := old.search("hotel", 50) // bypass cache: recompute from the old snapshot
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("old snapshot changed under append:\n%+v\nvs\n%+v", before, after)
	}
	if old.Docs() != 4 {
		t.Fatalf("old snapshot doc count = %d, want 4", old.Docs())
	}
}

func TestCacheHitAndClear(t *testing.T) {
	s := buildSnapshot(t, corpusDocs())
	r1, cached := s.Search("hotel", 5)
	if cached {
		t.Fatal("first query reported cached")
	}
	r2, cached := s.Search("hotel", 5)
	if !cached {
		t.Fatal("repeat query not served from cache")
	}
	if r1 != r2 {
		t.Fatal("cache returned a different result pointer")
	}
	// Different k is a different cache entry.
	if _, cached := s.Search("hotel", 6); cached {
		t.Fatal("different k served from cache")
	}

	small := NewBuilder(nil)
	for _, d := range corpusDocs() {
		small.Add(d.url, d.title, d.terms)
	}
	snap := small.Freeze(1, nil, 0, Options{CacheSize: 2})
	snap.Search("hotel", 5)
	snap.Search("flight", 5)
	snap.Search("fare", 5) // over capacity: wholesale clear, then insert
	if _, cached := snap.Search("hotel", 5); cached {
		t.Fatal("entry survived a full-cache clear")
	}
	if _, cached := snap.Search("fare", 5); !cached {
		t.Fatal("freshly inserted entry missing after clear")
	}
}

func TestFacetsSplitTopics(t *testing.T) {
	s := buildSnapshot(t, corpusDocs())
	r, _ := s.Search("hotel flight", 50)
	if len(r.Facets) < 2 {
		t.Fatalf("expected >= 2 facets over a two-topic result set, got %+v", r.Facets)
	}
	total := 0
	for _, f := range r.Facets {
		if f.Size != len(f.URLs) {
			t.Fatalf("facet size %d != %d urls", f.Size, len(f.URLs))
		}
		if f.Label == "" || len(f.Terms) == 0 {
			t.Fatalf("facet without label: %+v", f)
		}
		total += f.Size
	}
	if total != len(r.Hits) {
		t.Fatalf("facets cover %d hits, want %d", total, len(r.Hits))
	}
	// The two dominant facets should separate the topics: one labeled
	// with hotel vocabulary, one with flight vocabulary.
	joined := ""
	for _, f := range r.Facets {
		joined += f.Label + "|"
	}
	if !strings.Contains(joined, "hotel") || !strings.Contains(joined, "flight") {
		t.Fatalf("facet labels miss the topics: %q", joined)
	}
}

func TestFacetsSmallResultSetsFlat(t *testing.T) {
	s := buildSnapshot(t, corpusDocs())
	r, _ := s.Search("bundles", 50) // single-document term
	if len(r.Facets) != 0 {
		t.Fatalf("tiny result set should not be faceted: %+v", r.Facets)
	}
}

func TestClusterLabelsDiscriminative(t *testing.T) {
	s := buildSnapshot(t, corpusDocs())
	labels := s.ClusterLabels()
	if len(labels) != 2 {
		t.Fatalf("labels = %v, want 2 clusters", labels)
	}
	if !strings.Contains(labels[0], "hotel") {
		t.Fatalf("cluster 0 label %q misses 'hotel'", labels[0])
	}
	if !strings.Contains(labels[1], "flight") {
		t.Fatalf("cluster 1 label %q misses 'flight'", labels[1])
	}
	if labels[0] == labels[1] {
		t.Fatalf("labels not discriminative: both %q", labels[0])
	}
}

// TestMembers: each cluster lists its documents in document order, and
// documents assigned outside [0, k) belong to none.
func TestMembers(t *testing.T) {
	b := NewBuilder(nil)
	for _, d := range corpusDocs() {
		b.Add(d.url, d.title, d.terms)
	}
	s := b.Freeze(1, []int{1, 0, -1, 1, 2, 0, 1}, 2, Options{})
	var got [][]string
	for _, members := range s.Members() {
		var row []string
		for _, m := range members {
			row = append(row, m.URL+" "+m.Title)
		}
		got = append(got, row)
	}
	want := [][]string{
		{"u/h2 City Hotels", "u/f3 Airline Tickets"},
		{"u/h1 Hotel Rooms", "u/f1 Cheap Flights", "u/x1 Hotel Flight Bundles"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Members = %q, want %q", got, want)
	}
}

func TestSurfaceFormsInLabels(t *testing.T) {
	// Titles carry the display forms: "Flights" survives stemming
	// ("flight") and resurfaces in labels via the first-seen title token.
	b := NewBuilder(nil)
	b.Add("u/1", "Cheap Flights", wt("flight", 3, "cheap", 3))
	b.Add("u/2", "Flights Finder", wt("flight", 3, "finder", 3))
	b.Add("u/3", "Flights Deals", wt("flight", 3, "deal", 3))
	s := b.Freeze(1, []int{0, 0, 0}, 1, Options{})
	labels := s.ClusterLabels()
	if len(labels) != 1 || !strings.Contains(labels[0], "flights") {
		t.Fatalf("label %v should use the surface form 'flights'", labels)
	}
}

func TestSearchClusters(t *testing.T) {
	s := buildSnapshot(t, corpusDocs())
	chs := s.SearchClusters("flight", 8)
	if len(chs) != 2 {
		t.Fatalf("cluster hits = %+v, want both clusters matched", chs)
	}
	if chs[0].Cluster != 1 {
		t.Fatalf("best cluster = %d, want the flight cluster (1)", chs[0].Cluster)
	}
	if chs[0].Matches != 3 || chs[0].Best.URL == "" {
		t.Fatalf("flight cluster aggregation wrong: %+v", chs[0])
	}
	if chs[0].Score <= chs[1].Score {
		t.Fatalf("cluster ranking not descending: %+v", chs)
	}
}

func TestPageTermsFormAndFallback(t *testing.T) {
	formHTML := `<html><head><title>Hotel Search</title></head><body>
		<p>Find hotel rooms</p>
		<form action="/q"><input type="text" name="city"><input type="submit" value="Search"></form>
		</body></html>`
	title, terms := PageTerms("u/form", formHTML, form.DefaultWeights)
	if title != "Hotel Search" {
		t.Fatalf("title = %q", title)
	}
	seen := map[string]float64{}
	for _, o := range terms {
		seen[o.Term] += o.Loc
	}
	if seen["hotel"] == 0 {
		t.Fatalf("form page terms missing 'hotel': %v", seen)
	}

	plain := `<html><head><title>Plain Page</title></head><body>just text here</body></html>`
	title, terms = PageTerms("u/plain", plain, form.DefaultWeights)
	if title != "Plain Page" || len(terms) == 0 {
		t.Fatalf("fallback failed: %q %v", title, terms)
	}

	if title, terms = PageTerms("u/empty", "", form.DefaultWeights); len(terms) != 0 {
		t.Fatalf("empty HTML produced terms: %q %v", title, terms)
	}
}
