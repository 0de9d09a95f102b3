package cafc

import (
	"math/rand"

	"cafc/internal/cluster"
	"cafc/internal/hub"
)

// clusterOpts builds the Options every clustering entry point shares:
// the model's registry rides along so convergence telemetry lands
// wherever the model's build telemetry went.
func (m *Model) clusterOpts(rng *rand.Rand) cluster.Options {
	return cluster.Options{Rand: rng, Metrics: m.Metrics}
}

// CAFCC is Algorithm 1: k-means over the form-page model with randomly
// selected seeds and the <10%-movement stop criterion.
func CAFCC(m *Model, k int, rng *rand.Rand) cluster.Result {
	return cluster.KMeans(m, k, nil, m.clusterOpts(rng))
}

// CAFCCSeeded runs the CAFC-C k-means loop from explicit seed groups
// (Algorithm 2 line 3 calls this with hub clusters; Section 4.3 calls it
// with HAC-derived seeds).
func CAFCCSeeded(m *Model, k int, seeds [][]int, rng *rand.Rand) cluster.Result {
	return cluster.KMeans(m, k, seeds, m.clusterOpts(rng))
}

// SelectHubClusters is Algorithm 3: drop hub clusters below the minimum
// cardinality, then greedily pick the k mutually most distant ones
// (farthest-first over centroid distance under Equation 3). It returns
// the chosen clusters' member sets, ready to use as k-means seeds.
// Intra-site hubs are assumed to have been eliminated during hub-cluster
// construction (package hub does this).
func SelectHubClusters(m *Model, clusters []hub.Cluster, k, minCard int) [][]int {
	kept := hub.Filter(clusters, minCard)
	if reg := m.Metrics; reg != nil {
		reg.Counter("hub_filter_dropped_total").Add(int64(len(clusters) - len(kept)))
		reg.Gauge("hub_clusters_kept").Set(float64(len(kept)))
	}
	cands := hub.MemberSets(kept)
	sel := cluster.FarthestFirst(m, cands, k)
	out := make([][]int, 0, len(sel))
	for _, i := range sel {
		out = append(out, cands[i])
	}
	m.Metrics.Gauge("hub_seeds_selected").Set(float64(len(out)))
	return out
}

// CAFCCH is Algorithm 2: compute hub-cluster seeds with SelectHubClusters,
// then run the CAFC-C k-means loop from those seeds so content similarity
// reinforces or negates the hub-induced similarity. When fewer than k
// usable hub clusters exist, k-means fills the remaining seeds randomly
// (matching Algorithm 1's seeding for the shortfall).
func CAFCCH(m *Model, k int, clusters []hub.Cluster, minCard int, rng *rand.Rand) cluster.Result {
	seeds := SelectHubClusters(m, clusters, k, minCard)
	return CAFCCSeeded(m, k, seeds, rng)
}

// HACResult runs the Section 4.3 baseline: hierarchical agglomerative
// clustering over the form-page model, cut at k clusters.
func HACResult(m *Model, k int, linkage cluster.Linkage) cluster.Result {
	return cluster.HACCutOpts(m, k, linkage, cluster.Options{Metrics: m.Metrics})
}

// HACSeededKMeans is the Section 4.3 hybrid: run HAC over the entire data
// set, cut at k, and use the resulting clusters as k-means seeds.
func HACSeededKMeans(m *Model, k int, linkage cluster.Linkage, rng *rand.Rand) cluster.Result {
	h := cluster.HACCutOpts(m, k, linkage, cluster.Options{Metrics: m.Metrics})
	seeds := cluster.Members(h.Assign, h.K)
	return CAFCCSeeded(m, k, seeds, rng)
}

// HACOverHubSeeds runs HAC from hub-cluster seeds: the CAFC-CH (HAC)
// column of Table 2. Unlike the k-means variant — which needs exactly k
// seeds and therefore runs SelectHubClusters — HAC can start from the
// whole filtered hub-cluster collection: every hub cluster above the
// minimum cardinality becomes an initial group (first cluster wins for
// pages cited by several hubs), remaining pages start as singletons, and
// agglomeration proceeds until k clusters remain.
func HACOverHubSeeds(m *Model, k int, clusters []hub.Cluster, minCard int, linkage cluster.Linkage) cluster.Result {
	seeds := hub.MemberSets(hub.Filter(clusters, minCard))
	return cluster.HACFromGroupsOpts(m, seeds, k, linkage, cluster.Options{Metrics: m.Metrics})
}
