package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"cafc/internal/vector"
)

// TestMiniBatchDeterministic pins sampled-update determinism: a fixed
// Options.Rand seed fully determines batches, learning rates and the
// final assignment pass.
func TestMiniBatchDeterministic(t *testing.T) {
	s, _ := compiledBlobs(6, 30, 1, 41)
	mb := MiniBatch{BatchSize: 32, Rounds: 10}
	ref := MiniBatchKMeans(s, 6, nil, Options{Rand: rand.New(rand.NewSource(5))}, mb)
	got := MiniBatchKMeans(s, 6, nil, Options{Rand: rand.New(rand.NewSource(5))}, mb)
	if !reflect.DeepEqual(ref.Assign, got.Assign) {
		t.Error("mini-batch runs with the same seed diverged")
	}
	if !reflect.DeepEqual(ref.Centroids, got.Centroids) {
		t.Error("mini-batch centroids with the same seed diverged")
	}
}

// TestMiniBatchRecoversBlobs checks clustering quality on separable
// data: mini-batch updates must land every blob in its own cluster,
// agreeing with the labels up to cluster renaming.
func TestMiniBatchRecoversBlobs(t *testing.T) {
	s, labels := compiledBlobs(5, 40, 1, 23)
	res := MiniBatchKMeans(s, 5, blobSeeds(5, 40), Options{Rand: rand.New(rand.NewSource(5))}, MiniBatch{BatchSize: 64, Rounds: 30})
	if res.K != 5 {
		t.Fatalf("K = %d, want 5", res.K)
	}
	// Every ground-truth blob must map to exactly one cluster and every
	// cluster to exactly one blob.
	blobTo := map[int]int{}
	for i, c := range res.Assign {
		if prev, ok := blobTo[labels[i]]; ok && prev != c {
			t.Fatalf("blob %d split across clusters %d and %d", labels[i], prev, c)
		}
		blobTo[labels[i]] = c
	}
	clusterSeen := map[int]bool{}
	for _, c := range blobTo {
		if clusterSeen[c] {
			t.Fatal("two blobs merged into one cluster")
		}
		clusterSeen[c] = true
	}
}

// TestMiniBatchNoEmptyClusters pins the repair pass: even with k close
// to the corpus size (easy to leave a centroid unsampled), every cluster
// ends non-empty.
func TestMiniBatchNoEmptyClusters(t *testing.T) {
	s, _ := compiledBlobs(3, 8, 2, 77)
	res := MiniBatchKMeans(s, 12, nil, Options{Rand: rand.New(rand.NewSource(9))}, MiniBatch{BatchSize: 6, Rounds: 5})
	for c, sz := range Sizes(res.Assign, res.K) {
		if sz == 0 {
			t.Errorf("cluster %d empty after repair pass", c)
		}
	}
}

// TestMiniBatchFallsBackWithoutBlender pins the capability gate: a
// space without Blend runs plain KMeans, bit-identical.
func TestMiniBatchFallsBackWithoutBlender(t *testing.T) {
	intVecs, _ := intBlobs(4, 20, 31)
	s := &VectorSpace{Vecs: intVecs}
	ref := KMeans(s, 4, nil, Options{Rand: rand.New(rand.NewSource(5))})
	got := MiniBatchKMeans(s, 4, nil, Options{Rand: rand.New(rand.NewSource(5))}, MiniBatch{})
	if !reflect.DeepEqual(ref.Assign, got.Assign) {
		t.Error("blender-less space: mini-batch did not fall back to KMeans")
	}
}

// TestBlendCompiledCentroidUpdate sanity-checks the centroid update
// against a hand-computed convex combination through the Space API.
func TestBlendCompiledCentroidUpdate(t *testing.T) {
	s := NewCompiledSpace([]vector.Vector{
		{"a": 2, "b": 0},
		{"b": 4},
	})
	out := s.Blend(s.Point(0), s.Point(1), 0.25).(vector.Compiled)
	want := vector.Compile(vector.Vector{"a": 1.5, "b": 1}, s.Dict)
	if !reflect.DeepEqual(out.IDs, want.IDs) {
		t.Fatalf("blend IDs = %v, want %v", out.IDs, want.IDs)
	}
	for i := range out.Weights {
		if out.Weights[i] != want.Weights[i] {
			t.Errorf("blend weight[%d] = %v, want %v", i, out.Weights[i], want.Weights[i])
		}
	}
}
