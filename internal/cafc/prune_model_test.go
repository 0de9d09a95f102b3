package cafc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cafc/internal/cluster"
	"cafc/internal/webgen"
)

// buildFormsModel parses a forms-only corpus into a model — the cheap
// fixture for determinism tests that only exercise the clustering
// kernels, not the link structure.
func buildFormsModel(t testing.TB, seed int64, n int) *Model {
	t.Helper()
	return Build(parseFormsCorpus(t, seed, n), false)
}

// assertPrunedKernelsMatch runs the exhaustive kernel once and demands
// every pruned variant, serial and parallel, reproduce its assignments,
// iteration count and centroids bit for bit on the model's two-space
// similarity.
func assertPrunedKernelsMatch(t *testing.T, m *Model, k int) {
	t.Helper()
	ref := cluster.KMeans(m, k, nil, cluster.Options{Rand: rand.New(rand.NewSource(6)), Workers: 1, Prune: cluster.PruneOff})
	for _, prune := range []cluster.PruneMode{cluster.PruneHamerly} {
		for _, workers := range []int{1, 4} {
			got := cluster.KMeans(m, k, nil, cluster.Options{Rand: rand.New(rand.NewSource(6)), Workers: workers, Prune: prune})
			if !reflect.DeepEqual(ref.Assign, got.Assign) {
				t.Errorf("prune=%v workers=%d: assignments differ from exhaustive", prune, workers)
			}
			if ref.Iterations != got.Iterations {
				t.Errorf("prune=%v workers=%d: iterations %d != %d", prune, workers, got.Iterations, ref.Iterations)
			}
			if !reflect.DeepEqual(ref.Centroids, got.Centroids) {
				t.Errorf("prune=%v workers=%d: centroids differ from exhaustive", prune, workers)
			}
		}
	}
}

// TestPrunedKernelsMatchCorpus454 pins pruning determinism on the
// paper-scale corpus (454 form pages, one per paper site).
func TestPrunedKernelsMatchCorpus454(t *testing.T) {
	m := buildFormsModel(t, 454, 454)
	assertPrunedKernelsMatch(t, m, len(webgen.Domains))
}

// BenchmarkKMeansScale compares the clustering kernels on generated
// corpora at growing sizes, run to full convergence (the regime bound
// pruning targets). benchall -exp scale extends the same measurement to
// 20k/50k pages and records distance-computation counts.
func BenchmarkKMeansScale(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		m := buildFormsModel(b, int64(n), n)
		for _, prune := range []cluster.PruneMode{cluster.PruneOff, cluster.PruneHamerly} {
			b.Run(fmt.Sprintf("n=%d/%s", n, prune), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cluster.KMeans(m, len(webgen.Domains), nil, cluster.Options{
						Rand: rand.New(rand.NewSource(6)), Prune: prune, MoveFrac: 1e-12,
					})
				}
			})
		}
	}
}

// TestPrunedKernelsMatchCorpus5k repeats the check at 5k pages, where
// the bound-maintenance arithmetic runs millions of times — any
// tie-safety slack error would surface here long before the synthetic
// blob corpora catch it.
func TestPrunedKernelsMatchCorpus5k(t *testing.T) {
	if testing.Short() {
		t.Skip("5k-page determinism check skipped in -short mode")
	}
	m := buildFormsModel(t, 5000, 5000)
	assertPrunedKernelsMatch(t, m, len(webgen.Domains))
}
