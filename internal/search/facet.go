package search

import (
	"math"
	"sort"
	"strings"

	"cafc/internal/vector"
)

// minFacetHits is the smallest result set worth clustering; below it a
// flat ranked list reads better than one-member groups.
const minFacetHits = 4

// facetRounds bounds the Lloyd refinement over the hit set. The inputs
// are tiny (at most MaxK vectors), so a fixed small round count is both
// fast and — unlike an until-converged loop with floating-point
// wobble — trivially deterministic.
const facetRounds = 4

// facets clusters the hit set into dynamic groups and labels each with
// its top discriminative terms. Everything is deterministic: seeding is
// farthest-first from the top-ranked hit with index tie-breaks, vectors
// compare via the same merge-join cosine the clustering kernels use, and
// centroids accumulate in ascending-term-ID order.
func (s *Snapshot) facets(hits []Hit) []Facet {
	if len(hits) < minFacetHits || s.opts.MaxFacets < 2 {
		return nil
	}
	vecs := make([]vector.Compiled, len(hits))
	for i, h := range hits {
		vecs[i] = s.docVector(h.doc)
	}
	nf := int(math.Ceil(math.Sqrt(float64(len(hits)))))
	if nf < 2 {
		nf = 2
	}
	if nf > s.opts.MaxFacets {
		nf = s.opts.MaxFacets
	}

	seeds := farthestFirst(vecs, nf)
	if len(seeds) < 2 {
		return nil // all hits identical: no structure to expose
	}
	centroids := make([]vector.Compiled, len(seeds))
	for i, idx := range seeds {
		centroids[i] = vecs[idx]
	}
	assign := make([]int, len(vecs))
	acc := vector.NewAccumulator(0)
	for round := 0; round < facetRounds; round++ {
		changed := false
		for i, v := range vecs {
			best, bestSim := 0, -1.0
			for c, cent := range centroids {
				if sim := vector.CosineCompiled(v, cent); sim > bestSim {
					best, bestSim = c, sim
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && round > 0 {
			break
		}
		for c := range centroids {
			var members []vector.Compiled
			for i, a := range assign {
				if a == c {
					members = append(members, vecs[i])
				}
			}
			if len(members) > 0 {
				centroids[c] = vector.CentroidCompiled(members, acc)
			}
		}
	}

	// Assemble facets in cluster order, then order by size (ties: the
	// facet containing the better-ranked hit first).
	type group struct {
		members []int // hit indices, ascending (= rank order)
	}
	groups := make([]group, len(centroids))
	for i, a := range assign {
		groups[a].members = append(groups[a].members, i)
	}
	order := make([]int, 0, len(groups))
	for c, g := range groups {
		if len(g.members) > 0 {
			order = append(order, c)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		gi, gj := groups[order[i]], groups[order[j]]
		if len(gi.members) != len(gj.members) {
			return len(gi.members) > len(gj.members)
		}
		return gi.members[0] < gj.members[0]
	})
	out := make([]Facet, 0, len(order))
	for _, c := range order {
		g := groups[c]
		docs := make([]uint32, len(g.members))
		urls := make([]string, len(g.members))
		for i, m := range g.members {
			docs[i] = hits[m].doc
			urls[i] = hits[m].URL
		}
		terms := s.labelTerms(docs, 3)
		out = append(out, Facet{
			Label: strings.Join(terms, " "),
			Terms: terms,
			Size:  len(g.members),
			URLs:  urls,
		})
	}
	return out
}

// docVector is the document's Equation-1 vector at this snapshot's
// document frequencies: LOC·TF (stored) times query-time IDF, with a
// fresh norm. Only hit-set documents are materialized this way, so the
// per-query cost is O(k · nnz), not O(corpus).
func (s *Snapshot) docVector(d uint32) vector.Compiled {
	f := s.fwd[d]
	ws := make([]float64, len(f.Weights))
	var sum float64
	for i, id := range f.IDs {
		w := f.Weights[i] * s.idf(id)
		ws[i] = w
		sum += w * w
	}
	return vector.Compiled{IDs: f.IDs, Weights: ws, Norm: math.Sqrt(sum)}
}

// farthestFirst picks up to nf seed indices: the first vector, then
// repeatedly the vector farthest (in cosine distance) from its nearest
// chosen seed, ties to the lower index. Stops early when every
// remaining vector coincides with a seed.
func farthestFirst(vecs []vector.Compiled, nf int) []int {
	if len(vecs) == 0 {
		return nil
	}
	seeds := []int{0}
	minDist := make([]float64, len(vecs))
	for i, v := range vecs {
		minDist[i] = 1 - vector.CosineCompiled(v, vecs[0])
	}
	for len(seeds) < nf {
		best, bestDist := -1, 0.0
		for i, d := range minDist {
			if d > bestDist {
				best, bestDist = i, d
			}
		}
		if best < 0 || bestDist <= 1e-12 {
			break
		}
		seeds = append(seeds, best)
		for i, v := range vecs {
			if d := 1 - vector.CosineCompiled(v, vecs[best]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return seeds
}

// labelTerms extracts the top discriminative terms for a document group:
// each term is scored by p·log(p/q), where p is its in-group document
// frequency fraction and q its background (whole-index) fraction — high
// for terms common inside the group and rare outside it. The top n are
// selected under a total order (score descending, then term ID
// ascending), so labels are deterministic whatever order the terms are
// visited in. Stems are mapped back to surface forms for display.
func (s *Snapshot) labelTerms(docs []uint32, n int) []string {
	df := make(map[uint32]int)
	for _, d := range docs {
		for _, id := range s.fwd[d].IDs {
			df[id]++
		}
	}

	type scored struct {
		id uint32
		sc float64
	}
	var cands []scored
	size := float64(len(docs))
	total := float64(len(s.docs))
	for id, c := range df {
		if len(docs) >= minFacetHits && c < 2 {
			continue // one-document terms are noise in any real group
		}
		p := float64(c) / size
		q := float64(len(s.post[id])) / total
		if sc := p * math.Log(p/q); sc > 0 {
			cands = append(cands, scored{id: id, sc: sc})
		}
	}
	if len(cands) == 0 {
		// Degenerate group (e.g. the whole index): fall back to the most
		// frequent in-group terms.
		for id, c := range df {
			cands = append(cands, scored{id: id, sc: float64(c)})
		}
	}
	top := best(cands, n, func(a, b scored) bool {
		return a.sc > b.sc || a.sc == b.sc && a.id < b.id
	})
	out := make([]string, len(top))
	for i, c := range top {
		out[i] = s.surface[c.id]
	}
	return out
}

// clusterLabels names every directory cluster with its top
// discriminative terms — the per-epoch upgrade from "cluster 3" to a
// human-readable name. Cost is one pass over the corpus postings plus a
// per-cluster vocabulary scan, paid once per freeze.
func (s *Snapshot) clusterLabels() []string {
	if s.k <= 0 {
		return nil
	}
	labels := make([]string, s.k)
	members := make([][]uint32, s.k)
	for d, c := range s.assign {
		if c >= 0 && c < s.k {
			members[c] = append(members[c], uint32(d))
		}
	}
	for c, docs := range members {
		if len(docs) == 0 {
			continue
		}
		labels[c] = strings.Join(s.labelTerms(docs, 3), " ")
	}
	return labels
}
