package cafc

import (
	"math/rand"

	"cafc/internal/cluster"
	"cafc/internal/hub"
	"cafc/internal/text"
	"cafc/internal/vector"
)

// The paper's Section 6 names two link-side features to exploit next:
// the anchor text around form-page citations and the quality of hub
// pages. This file implements both as drop-in variants of
// SelectHubClusters.

// AnchorProvider returns the anchor texts a hub page uses for its links
// (e.g. webgraph.Graph.OutAnchors).
type AnchorProvider func(hubURL string) []string

// anchorVector turns a hub cluster's anchor texts into a PC-space TF-IDF
// vector using the model's document frequencies.
func anchorVector(m *Model, c hub.Cluster, anchors AnchorProvider) vector.Vector {
	var wts []vector.WeightedTerm
	for _, h := range c.Hubs {
		for _, a := range anchors(h) {
			for _, t := range text.Terms(a) {
				wts = append(wts, vector.WeightedTerm{Term: t, Loc: 1})
			}
		}
	}
	return vector.TFIDF(wts, m.PCDF, m.Uniform)
}

// SelectHubClustersAnchored is SelectHubClusters with anchor-text
// enrichment: each candidate's centroid gets its hubs' anchor-text vector
// blended into the PC space before the farthest-first spread, so two hub
// clusters described with the same words ("cheap flight sites") are
// recognized as close even when their member pages differ.
func SelectHubClustersAnchored(m *Model, clusters []hub.Cluster, k, minCard int, anchors AnchorProvider) [][]int {
	return selectAnchored(m, clusters, k, minCard, anchors, m.centroidMap)
}

// selectAnchored is SelectHubClustersAnchored with the candidates'
// map-form centroids taken from centroid.
func selectAnchored(m *Model, clusters []hub.Cluster, k, minCard int, anchors AnchorProvider, centroid func([]int) point) [][]int {
	kept := hub.Filter(clusters, minCard)
	if len(kept) == 0 {
		return nil
	}
	cands := hub.MemberSets(kept)
	if k >= len(cands) {
		return cands
	}
	// Enriched candidate points: centroid with anchor vector added to PC.
	pts := make([]cluster.Point, len(kept))
	for i, c := range kept {
		// Map-space centroid: the anchor vector is blended term-wise,
		// and the enriched points compare on Sim's map path.
		cent := centroid(c.Members)
		av := anchorVector(m, c, anchors)
		if av.Len() > 0 {
			pc := cent.pc.Clone()
			// Scale the anchor vector to a fraction of the centroid's
			// mass so member content stays the primary signal.
			norm := cent.pc.Norm()
			if an := av.Norm(); an > 0 && norm > 0 {
				av = av.Clone().Scale(0.5 * norm / an)
			}
			pc.AddVec(av)
			cent = point{pc: pc, fc: cent.fc}
		}
		pts[i] = cent
	}
	sel := farthestFirstPoints(m, pts, k)
	out := make([][]int, 0, len(sel))
	for _, i := range sel {
		out = append(out, cands[i])
	}
	return out
}

// centroidMap is the members' centroid in map form, for enrichment to
// post-process term-wise. It is the packed centroid decompiled, which is
// vector.Centroid over the members' TF-IDF maps bit for bit: the dense
// accumulator adds each term's member weights in member order and
// applies the same final 1/n scale (see CentroidTopTerms).
func (m *Model) centroidMap(members []int) point {
	c := m.Centroid(members).(cpoint)
	return point{pc: c.pc.Decompile(m.compiled.pcDict), fc: c.fc.Decompile(m.compiled.fcDict)}
}

// CAFCCHAnchored is CAFC-CH with anchor-enriched seed selection.
func CAFCCHAnchored(m *Model, k int, clusters []hub.Cluster, minCard int, anchors AnchorProvider, rng *rand.Rand) cluster.Result {
	seeds := SelectHubClustersAnchored(m, clusters, k, minCard, anchors)
	return CAFCCSeeded(m, k, seeds, rng)
}

// HubQuality scores a hub cluster by the mean pairwise similarity of its
// members under the model — a content-cohesion proxy for "good hub".
// Singleton clusters score 0.
func HubQuality(m *Model, c hub.Cluster) float64 {
	n := len(c.Members)
	if n < 2 {
		return 0
	}
	var sum float64
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += m.PairSim(c.Members[i], c.Members[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

// SelectHubClustersByQuality drops the least cohesive fraction of the
// candidate hub clusters (after the cardinality filter) before the
// farthest-first spread. dropFrac in [0,1); 0.25 drops the bottom
// quartile.
func SelectHubClustersByQuality(m *Model, clusters []hub.Cluster, k, minCard int, dropFrac float64) [][]int {
	kept := hub.Filter(clusters, minCard)
	if len(kept) == 0 {
		return nil
	}
	scored := make([]struct {
		c hub.Cluster
		q float64
	}, len(kept))
	for i, c := range kept {
		scored[i].c = c
		scored[i].q = HubQuality(m, c)
	}
	// Selection-sort style partial ordering by descending quality.
	for i := 0; i < len(scored); i++ {
		for j := i + 1; j < len(scored); j++ {
			if scored[j].q > scored[i].q {
				scored[i], scored[j] = scored[j], scored[i]
			}
		}
	}
	keep := len(scored) - int(dropFrac*float64(len(scored)))
	if keep < k {
		keep = min2int(k, len(scored))
	}
	filtered := make([]hub.Cluster, 0, keep)
	for i := 0; i < keep; i++ {
		filtered = append(filtered, scored[i].c)
	}
	cands := hub.MemberSets(filtered)
	sel := cluster.FarthestFirst(m, cands, k)
	out := make([][]int, 0, len(sel))
	for _, i := range sel {
		out = append(out, cands[i])
	}
	return out
}

// CAFCCHQuality is CAFC-CH with quality-filtered seed selection.
func CAFCCHQuality(m *Model, k int, clusters []hub.Cluster, minCard int, dropFrac float64, rng *rand.Rand) cluster.Result {
	seeds := SelectHubClustersByQuality(m, clusters, k, minCard, dropFrac)
	return CAFCCSeeded(m, k, seeds, rng)
}

// farthestFirstPoints is cluster.FarthestFirst over precomputed points.
func farthestFirstPoints(m *Model, pts []cluster.Point, k int) []int {
	n := len(pts)
	if n == 0 || k <= 0 {
		return nil
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1 - m.Sim(pts[i], pts[j])
			dist[i][j], dist[j][i] = d, d
		}
	}
	bi, bj, best := 0, 1, -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist[i][j] > best {
				bi, bj, best = i, j, dist[i][j]
			}
		}
	}
	selected := []int{bi, bj}
	inSel := make([]bool, n)
	inSel[bi], inSel[bj] = true, true
	sumDist := make([]float64, n)
	for i := 0; i < n; i++ {
		sumDist[i] = dist[i][bi] + dist[i][bj]
	}
	for len(selected) < k {
		pick, bestSum := -1, -1.0
		for i := 0; i < n; i++ {
			if !inSel[i] && sumDist[i] > bestSum {
				pick, bestSum = i, sumDist[i]
			}
		}
		if pick < 0 {
			break
		}
		selected = append(selected, pick)
		inSel[pick] = true
		for i := 0; i < n; i++ {
			sumDist[i] += dist[i][pick]
		}
	}
	return selected
}

func min2int(a, b int) int {
	if a < b {
		return a
	}
	return b
}
