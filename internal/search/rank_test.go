package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cafc/internal/vector"
)

// sortedOracle is the full sort rank's bounded selection stands in for:
// every hit, ordered by score descending, then document ID ascending.
func sortedOracle(hits []Hit) []Hit {
	out := append([]Hit(nil), hits...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].doc < out[j].doc
	})
	return out
}

// labelTermsOracle is labelTerms as a full sort: candidate terms walked
// in ascending-ID order, every candidate sorted by score descending,
// then term ID ascending, and the first n kept.
func labelTermsOracle(s *Snapshot, docs []uint32, n int) []string {
	df := make(map[uint32]int)
	for _, d := range docs {
		for _, id := range s.fwd[d].IDs {
			df[id]++
		}
	}
	ids := make([]uint32, 0, len(df))
	for id := range df {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type scored struct {
		id uint32
		sc float64
	}
	var cands []scored
	size := float64(len(docs))
	total := float64(len(s.docs))
	for _, id := range ids {
		if len(docs) >= minFacetHits && df[id] < 2 {
			continue
		}
		p := float64(df[id]) / size
		q := float64(len(s.post[id])) / total
		if sc := p * math.Log(p/q); sc > 0 {
			cands = append(cands, scored{id: id, sc: sc})
		}
	}
	if len(cands) == 0 {
		for _, id := range ids {
			cands = append(cands, scored{id: id, sc: float64(df[id])})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sc != cands[j].sc {
			return cands[i].sc > cands[j].sc
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = s.surface[c.id]
	}
	return out
}

// TestSelectionMatchesFullSort holds rank's top-k and labelTerms' top-n
// to the full sorts they replace, on random indexes small enough in
// vocabulary that many documents, and many terms, tie on score.
func TestSelectionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vocab := []string{"hotel", "room", "flight", "fare", "citi", "suit", "deal", "cheap"}
	queries := append([]string{"hotel room", "cheap flight fare", "citi suit deal hotel"}, vocab...)
	tiedHits, tiedLabels := 0, 0
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(60)
		b := NewBuilder(nil)
		assign := make([]int, n)
		for i := range assign {
			var terms []vector.WeightedTerm
			for j := 0; j <= rng.Intn(3); j++ {
				terms = append(terms, vector.WeightedTerm{Term: vocab[rng.Intn(len(vocab))], Loc: float64(1 + 2*rng.Intn(2))})
			}
			b.Add(fmt.Sprintf("u/%d", i), "Page", terms)
			assign[i] = rng.Intn(3)
		}
		s := b.Freeze(1, assign, 3, Options{})

		for _, q := range queries {
			all, total := s.rank(q, -1)
			want := sortedOracle(all)
			if total != len(all) || !reflect.DeepEqual(all, want) {
				t.Fatalf("trial %d %q: full ranking differs from the sort:\n%+v\nwant\n%+v", trial, q, all, want)
			}
			for i := 1; i < len(want); i++ {
				if want[i].Score == want[i-1].Score {
					tiedHits++
				}
			}
			for _, k := range []int{1, 2, 5, 10, total, total + 3} {
				got, gotTotal := s.rank(q, k)
				w := want[:min(k, len(want))]
				if gotTotal != total || len(got) != len(w) || len(w) > 0 && !reflect.DeepEqual(got, w) {
					t.Fatalf("trial %d %q k=%d: top-k (total %d)\n%+v\nwant (total %d)\n%+v", trial, q, k, gotTotal, got, total, w)
				}
			}
		}

		groups := [][]uint32{nil} // the whole index: the degenerate fallback
		for d := 0; d < n; d++ {
			groups[0] = append(groups[0], uint32(d))
		}
		for g := 0; g < 20; g++ {
			var docs []uint32
			for d := 0; d < n; d++ {
				if rng.Intn(4) == 0 {
					docs = append(docs, uint32(d))
				}
			}
			if len(docs) > 0 {
				groups = append(groups, docs)
			}
		}
		for _, docs := range groups {
			for _, top := range []int{1, 3, 5} {
				got, want := s.labelTerms(docs, top), labelTermsOracle(s, docs, top)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d group %v top %d: labels %q, the full sort gives %q", trial, docs, top, got, want)
				}
			}
			if all := labelTermsOracle(s, docs, len(vocab)); len(all) > 3 && tiedScores(s, docs, all) {
				tiedLabels++
			}
		}
	}
	if tiedHits == 0 || tiedLabels == 0 {
		t.Fatalf("%d tied hit pairs, %d groups with tied labels: the tie-breaks are untested", tiedHits, tiedLabels)
	}
}

// tiedScores reports whether two of a group's ranked label terms share
// an in-group document count, which with the same background count
// makes their p·log(p/q) scores equal.
func tiedScores(s *Snapshot, docs []uint32, surfaces []string) bool {
	type key struct{ df, post int }
	seen := make(map[key]bool)
	for _, sf := range surfaces {
		id, ok := s.dict.ID(sf)
		if !ok {
			continue
		}
		df := 0
		for _, d := range docs {
			for _, t := range s.fwd[d].IDs {
				if t == id {
					df++
				}
			}
		}
		k := key{df, len(s.post[id])}
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}
