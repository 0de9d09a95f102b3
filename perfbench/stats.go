package main

import (
	"math"
	"sort"
	"strings"
)

// percentile is the nearest-rank percentile of xs (p in (0, 100]): the
// smallest sample with at least p% of the samples at or below it. It
// sorts xs in place. An empty slice gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	// The epsilon keeps float rounding (99.9/100*1000 = 999.0000000000001)
	// from pushing an exact rank up by one.
	rank := int(math.Ceil(p/100*float64(len(xs)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// minSamplesP99 is the sample count below which a p99 has fewer than
// ten samples beyond it.
const minSamplesP99 = 1000

// median of xs (nearest rank), without reordering the caller's slice.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// fMeasure is the paper's overall F-measure of a clustering against
// gold classes: for each cluster j the best F(i, j) = 2PR/(P+R) over
// classes i, with P = n_ij/n_j and R = n_ij/n_i, averaged over clusters
// weighted by cluster size. Pages without a gold label are ignored.
func fMeasure(clusters [][]string, gold map[string]string) float64 {
	classSize := map[string]int{}
	n := 0
	for _, members := range clusters {
		for _, u := range members {
			if c, ok := gold[u]; ok {
				classSize[c]++
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	total := 0.0
	for _, members := range clusters {
		inCluster := map[string]int{}
		nj := 0
		for _, u := range members {
			if c, ok := gold[u]; ok {
				inCluster[c]++
				nj++
			}
		}
		best := 0.0
		for c, nij := range inCluster {
			p := float64(nij) / float64(nj)
			r := float64(nij) / float64(classSize[c])
			if f := 2 * p * r / (p + r); f > best {
				best = f
			}
		}
		total += float64(nj) / float64(n) * best
	}
	return total
}

// samePartition reports whether two clusterings group the same pages
// together, ignoring cluster numbering.
func samePartition(a, b [][]string) bool {
	key := func(cs [][]string) map[string]bool {
		out := map[string]bool{}
		for _, members := range cs {
			if len(members) == 0 {
				continue
			}
			m := append([]string(nil), members...)
			sort.Strings(m)
			out[strings.Join(m, "\x00")] = true
		}
		return out
	}
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		return false
	}
	for s := range ka {
		if !kb[s] {
			return false
		}
	}
	return true
}
