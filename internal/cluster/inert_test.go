package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"cafc/internal/obs"
)

// TestInstrumentationInert is the observability contract: attaching a
// metrics registry must only observe a run, never perturb it. K-means
// and HAC with Options.Metrics set must produce bit-identical results
// to the nil-registry run — same assignments, same iteration count,
// same dendrogram — while actually populating the registry (so the
// instrumentation cannot silently rot into a no-op either).
func TestInstrumentationInert(t *testing.T) {
	intVecs, _ := intBlobs(6, 20, 17)
	for name, space := range map[string]Space{
		"vector":   &VectorSpace{Vecs: intVecs},
		"compiled": func() Space { s, _ := compiledBlobs(6, 20, 1, 17); return s }(),
	} {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				for _, prune := range []PruneMode{PruneOff, PruneHamerly} {
					reg := obs.NewRegistry()
					plain := KMeans(space, 6, nil, Options{Rand: rand.New(rand.NewSource(5)), Workers: workers, Prune: prune})
					instr := KMeans(space, 6, nil, Options{Rand: rand.New(rand.NewSource(5)), Workers: workers, Prune: prune, Metrics: reg})
					if !reflect.DeepEqual(plain.Assign, instr.Assign) {
						t.Errorf("k-means workers=%d prune=%v: instrumented assignments differ from plain", workers, prune)
					}
					if plain.Iterations != instr.Iterations {
						t.Errorf("k-means workers=%d prune=%v: iterations %d != %d", workers, prune, plain.Iterations, instr.Iterations)
					}
					assertRecorded(t, reg, "kmeans_runs_total", "kmeans_moved_fraction", "kmeans_iterations_total",
						"kmeans_assign_seconds", "kmeans_recompute_seconds",
						"distance_computations_total", "kmeans_pruned_total")
				}
				reg := obs.NewRegistry()
				plainHAC := HACCut(space, 6, AverageLinkage)
				instrHAC := HACCutOpts(space, 6, AverageLinkage, Options{Workers: workers, Metrics: reg})
				if !reflect.DeepEqual(plainHAC.Assign, instrHAC.Assign) {
					t.Errorf("HAC workers=%d: instrumented assignments differ from plain", workers)
				}
				assertRecorded(t, reg, "hac_runs_total", "hac_merges_total", "hac_matrix_seconds", "hac_merge_seconds")
			}
		})
	}
}

// TestInstrumentationInertFromGroups covers the hub-seeded HAC path.
func TestInstrumentationInertFromGroups(t *testing.T) {
	intVecs, _ := intBlobs(4, 15, 29)
	space := &VectorSpace{Vecs: intVecs}
	groups := [][]int{{0, 1, 2}, {15, 16}, {30, 31, 32, 33}}
	reg := obs.NewRegistry()
	plain := HACFromGroups(space, groups, 4, AverageLinkage)
	instr := HACFromGroupsOpts(space, groups, 4, AverageLinkage, Options{Metrics: reg})
	if !reflect.DeepEqual(plain.Assign, instr.Assign) {
		t.Error("HACFromGroups: instrumented assignments differ from plain")
	}
	assertRecorded(t, reg, "hac_group_merges_total")
}

// BenchmarkKMeansTelemetry pairs a nil-registry run with an
// instrumented run so the observability overhead stays measurable
// (the per-iteration handles must keep it within a few percent).
func BenchmarkKMeansTelemetry(b *testing.B) {
	space, _ := compiledBlobs(8, 60, 1, 17)
	for name, reg := range map[string]*obs.Registry{"nil": nil, "registry": obs.NewRegistry()} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				KMeans(space, 8, nil, Options{Rand: rand.New(rand.NewSource(5)), Workers: 1, Metrics: reg})
			}
		})
	}
}

// assertRecorded fails unless the registry snapshot contains every
// named metric family.
func assertRecorded(t *testing.T, reg *obs.Registry, names ...string) {
	t.Helper()
	have := make(map[string]bool)
	for _, s := range reg.Snapshot() {
		have[s.Name] = true
	}
	for _, n := range names {
		if !have[n] {
			t.Errorf("registry missing expected metric %q", n)
		}
	}
}
