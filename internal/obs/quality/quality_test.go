package quality

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"cafc/internal/cluster"
	"cafc/internal/obs"
	"cafc/internal/vector"
)

// twoBlobSpace builds n vectors in two well-separated vocabulary blobs:
// even indices speak one vocabulary, odd the other.
func twoBlobSpace(n int) *cluster.VectorSpace {
	vecs := make([]vector.Vector, n)
	for i := range vecs {
		if i%2 == 0 {
			vecs[i] = vector.Vector{"car": 1, "engine": 0.5, fmt.Sprintf("v%d", i%4): 0.1}
		} else {
			vecs[i] = vector.Vector{"book": 1, "author": 0.5, fmt.Sprintf("v%d", i%4): 0.1}
		}
	}
	return &cluster.VectorSpace{Vecs: vecs}
}

func twoBlobEpoch(seq int64, s *cluster.VectorSpace) Epoch {
	n := s.Len()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i % 2
	}
	members := cluster.Members(assign, 2)
	return Epoch{
		Seq:       seq,
		Space:     s,
		Assign:    assign,
		K:         2,
		Centroids: []cluster.Point{s.Centroid(members[0]), s.Centroid(members[1])},
		URL:       func(i int) string { return fmt.Sprintf("http://site%d/p%d", i%2, i) },
	}
}

var t0 = time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)

// TestReservoirDeterministic: same seed + same page sequence = same
// sample, no matter how epoch observations batch the growth.
func TestReservoirDeterministic(t *testing.T) {
	s := twoBlobSpace(100)
	a := New(Config{SampleSize: 16, Seed: 42})
	b := New(Config{SampleSize: 16, Seed: 42})

	// a sees the corpus in three steps, b in two different ones.
	for _, n := range []int{10, 40, 100} {
		sub := &cluster.VectorSpace{Vecs: s.Vecs[:n]}
		a.ObserveEpoch(twoBlobEpoch(int64(n), sub), t0)
	}
	for _, n := range []int{25, 100} {
		sub := &cluster.VectorSpace{Vecs: s.Vecs[:n]}
		b.ObserveEpoch(twoBlobEpoch(int64(n), sub), t0)
	}
	if !reflect.DeepEqual(a.Sample(), b.Sample()) {
		t.Fatalf("samples diverge under different batching:\n a=%v\n b=%v", a.Sample(), b.Sample())
	}

	// And a third monitor with another seed should (overwhelmingly
	// likely) differ — the seed is live, not decorative.
	c := New(Config{SampleSize: 16, Seed: 1})
	c.ObserveEpoch(twoBlobEpoch(100, s), t0)
	if reflect.DeepEqual(a.Sample(), c.Sample()) {
		t.Fatalf("different seeds produced identical samples: %v", a.Sample())
	}
}

// TestSampledSilhouetteMatchesExact: when the reservoir covers the
// whole corpus the sampled silhouette must equal the exact one
// bit for bit.
func TestSampledSilhouetteMatchesExact(t *testing.T) {
	s := twoBlobSpace(40)
	m := New(Config{SampleSize: 100, Seed: 7})
	snap := m.ObserveEpoch(twoBlobEpoch(1, s), t0)
	exact := cluster.Silhouette(s, twoBlobEpoch(1, s).Assign, 2)
	if snap.Silhouette != exact {
		t.Fatalf("full-coverage sampled silhouette %v != exact %v", snap.Silhouette, exact)
	}
	if snap.Silhouette < 0.5 {
		t.Fatalf("two separated blobs scored silhouette %v, want > 0.5", snap.Silhouette)
	}
}

// TestSampledSilhouettePartialCoverage: when the reservoir holds only
// part of the corpus, the monitor's silhouette is the exact silhouette
// of the sampled pages alone. The sum runs in reservoir order rather
// than page order, hence the tolerance.
func TestSampledSilhouettePartialCoverage(t *testing.T) {
	const n, k = 120, 3
	vocab := [][]string{{"car", "engine"}, {"book", "author"}, {"hotel", "room"}}
	vecs := make([]vector.Vector, n)
	assign := make([]int, n)
	for i := range vecs {
		own, other := vocab[i%k], vocab[(i+1)%k]
		vecs[i] = vector.Vector{
			own[0]:                  1 + float64(i%7)/10,
			own[1]:                  0.5,
			other[i%2]:              float64(i%5) / 8,
			fmt.Sprintf("v%d", i%9): 0.3,
		}
		// Every seventh page sits in the wrong cluster and every
		// eleventh is unassigned, so the coefficients vary in sign.
		switch {
		case i%11 == 0:
			assign[i] = -1
		case i%7 == 0:
			assign[i] = (i + 1) % k
		default:
			assign[i] = i % k
		}
	}
	s := &cluster.VectorSpace{Vecs: vecs}
	m := New(Config{SampleSize: 40, Seed: 11})
	snap := m.ObserveEpoch(Epoch{Seq: 1, Space: s, Assign: assign, K: k}, t0)

	sample := m.Sample()
	if len(sample) != 40 || snap.SampleSize != 40 {
		t.Fatalf("sample holds %d pages (snapshot %d), want 40", len(sample), snap.SampleSize)
	}
	subVecs := make([]vector.Vector, len(sample))
	subAssign := make([]int, len(sample))
	for i, idx := range sample {
		subVecs[i], subAssign[i] = vecs[idx], assign[idx]
	}
	want := cluster.Silhouette(&cluster.VectorSpace{Vecs: subVecs}, subAssign, k)
	if math.Abs(snap.Silhouette-want) > 1e-12 {
		t.Fatalf("sampled silhouette %v, exact over the sample %v", snap.Silhouette, want)
	}
	if whole := cluster.Silhouette(s, assign, k); snap.Silhouette == whole {
		t.Fatalf("sampled silhouette equals the whole corpus's (%v): the sample is not what was scored", whole)
	}
}

// TestSnapshotMetrics pins sizes, skew, churn and label quality on a
// hand-built epoch sequence.
func TestSnapshotMetrics(t *testing.T) {
	s := twoBlobSpace(40)
	labels := make(map[string]string)
	for i := 0; i < 40; i++ {
		labels[fmt.Sprintf("http://site%d/p%d", i%2, i)] = fmt.Sprintf("class%d", i%2)
	}
	m := New(Config{SampleSize: 64, Seed: 3, Labels: labels})

	e := twoBlobEpoch(1, s)
	snap := m.ObserveEpoch(e, t0)
	if !reflect.DeepEqual(snap.ClusterSizes, []int{20, 20}) {
		t.Fatalf("ClusterSizes = %v, want [20 20]", snap.ClusterSizes)
	}
	if snap.MaxShare != 0.5 || snap.Skew != 1 || snap.EmptyClusters != 0 {
		t.Fatalf("balance stats = share %v skew %v empty %d, want 0.5 / 1 / 0", snap.MaxShare, snap.Skew, snap.EmptyClusters)
	}
	if snap.ChurnMean != 0 || snap.ChurnMax != 0 {
		t.Fatalf("first epoch churn = %v/%v, want 0/0", snap.ChurnMean, snap.ChurnMax)
	}
	// Perfect clusters against the gold labels.
	if snap.Labeled != 40 || snap.Entropy != 0 || snap.FMeasure != 1 {
		t.Fatalf("label quality = %d labeled, entropy %v, F %v; want 40, 0, 1", snap.Labeled, snap.Entropy, snap.FMeasure)
	}

	// Same epoch again: centroids unchanged, churn exactly 0.
	snap2 := m.ObserveEpoch(twoBlobEpoch(2, s), t0)
	if snap2.ChurnMean != 0 || snap2.ChurnMax != 0 {
		t.Fatalf("identical centroids churn = %v/%v, want 0/0", snap2.ChurnMean, snap2.ChurnMax)
	}

	// Swap the two centroids: drift should be large (near-orthogonal
	// vocabularies).
	e3 := twoBlobEpoch(3, s)
	e3.Centroids[0], e3.Centroids[1] = e3.Centroids[1], e3.Centroids[0]
	snap3 := m.ObserveEpoch(e3, t0)
	if snap3.ChurnMax < 0.5 {
		t.Fatalf("swapped centroids churn max = %v, want > 0.5", snap3.ChurnMax)
	}
}

// TestRing: the snapshot ring holds the last RingSize epochs, oldest
// first, and Latest returns the newest.
func TestRing(t *testing.T) {
	s := twoBlobSpace(10)
	m := New(Config{SampleSize: 4, Seed: 1, RingSize: 2})
	for seq := int64(1); seq <= 3; seq++ {
		m.ObserveEpoch(twoBlobEpoch(seq, s), t0)
	}
	snaps := m.Snapshots()
	if len(snaps) != 2 || snaps[0].Epoch != 2 || snaps[1].Epoch != 3 {
		t.Fatalf("ring = %+v, want epochs [2 3]", snaps)
	}
	last, ok := m.Latest()
	if !ok || last.Epoch != 3 {
		t.Fatalf("Latest = %+v/%v, want epoch 3", last, ok)
	}

	empty := New(Config{})
	if _, ok := empty.Latest(); ok {
		t.Fatal("Latest on an unfed monitor reported ok")
	}
	if got := empty.Snapshots(); len(got) != 0 {
		t.Fatalf("Snapshots on an unfed monitor = %v, want empty", got)
	}
}

// TestNilRegistryInert: the snapshot a monitor computes is identical
// with and without a registry attached — gauges observe, they never
// participate. This is the quality-layer sibling of
// cluster.TestInstrumentationInert.
func TestNilRegistryInert(t *testing.T) {
	s := twoBlobSpace(30)
	reg := obs.NewRegistry()
	with := New(Config{SampleSize: 8, Seed: 5, Metrics: reg})
	without := New(Config{SampleSize: 8, Seed: 5})

	for seq := int64(1); seq <= 3; seq++ {
		sub := &cluster.VectorSpace{Vecs: s.Vecs[:10*seq]}
		// One epoch value for both monitors: map-based centroid sums are
		// order-sensitive in the last ulp, so building the epoch twice
		// would differ before the monitors ever saw it.
		e := twoBlobEpoch(seq, sub)
		a := with.ObserveEpoch(e, t0)
		b := without.ObserveEpoch(e, t0)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("epoch %d snapshots diverge with registry attached:\n with=%+v\n without=%+v", seq, a, b)
		}
	}
	// And the registry did collect the gauges.
	if v := reg.Gauge("quality_silhouette").Value(); v == 0 {
		t.Fatalf("quality_silhouette gauge not published (= %v)", v)
	}
	if v := reg.Gauge("quality_sample_size").Value(); v != 8 {
		t.Fatalf("quality_sample_size = %v, want 8", v)
	}
}
