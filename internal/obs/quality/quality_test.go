package quality

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cafc/internal/cluster"
	"cafc/internal/obs"
	"cafc/internal/stream"
	"cafc/internal/vector"
	"cafc/internal/webgen"
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

// sampledSilhouette is the uncached reference for the monitor's
// silhouette: cluster.Silhouette over the sampled pages in reservoir
// order, scoring every pair through the epoch's own space. Pages beyond
// the assignment count as unassigned, so they score nothing.
func sampledSilhouette(s cluster.Space, assign []int, k int, sample []int) float64 {
	sub := make([]int, len(sample))
	for pos, idx := range sample {
		sub[pos] = -1
		if idx < len(assign) {
			sub[pos] = assign[idx]
		}
	}
	return cluster.Silhouette(sampleSpace{space: s, pages: sample}, sub, k)
}

// sampleSpace views a sample of a space's objects as a space of its own:
// object i is page pages[i]. The space is a named field, not embedded, so
// no method of the whole space can read sample positions as page indices.
type sampleSpace struct {
	space cluster.Space
	pages []int
}

func (v sampleSpace) Len() int { return len(v.pages) }

func (v sampleSpace) Point(i int) cluster.Point { return v.space.Point(v.pages[i]) }

func (v sampleSpace) Centroid(members []int) cluster.Point {
	pages := make([]int, len(members))
	for i, m := range members {
		pages[i] = v.pages[m]
	}
	return v.space.Centroid(pages)
}

func (v sampleSpace) Sim(a, b cluster.Point) float64 { return v.space.Sim(a, b) }

// TestCachedSilhouetteBitIdentical drives the real incremental model
// through a manual stream pipeline: a 40-page founding batch (so the
// 64-slot reservoir is still filling), then one page per record with a
// forced rebuild every 25 records. At every published epoch the cached
// silhouette must have the same bits as the uncached oracle over the
// monitor's reservoir, and as a fresh monitor that sees only that epoch
// (the reservoir does not depend on batching).
func TestCachedSilhouetteBitIdentical(t *testing.T) {
	const sampleSize, genesis, pages, rebuildEvery = 64, 40, 200, 25
	c := webgen.Generate(webgen.Config{Seed: 2007, FormPages: pages})
	docs := make([]stream.Doc, 0, len(c.FormPages))
	for _, u := range c.FormPages {
		docs = append(docs, stream.Doc{URL: u, HTML: c.ByURL[u].HTML})
	}
	cfg := Config{SampleSize: sampleSize, Seed: 9}
	m := New(cfg)
	var epochs, rebuilt int
	l := stream.NewManual(stream.Config{K: 8, Seed: 3, OnPublish: func(e *stream.Epoch) {
		qe := Epoch{Seq: e.Seq, Space: e.Model, Assign: e.Result.Assign, K: e.Result.K,
			Centroids: e.Result.Centroids, Rebuilt: e.Rebuilt}
		got := m.ObserveEpoch(qe, t0).Silhouette
		oracle := sampledSilhouette(qe.Space, qe.Assign, qe.K, m.res)
		fresh := New(cfg).ObserveEpoch(qe, t0).Silhouette
		if math.Float64bits(got) != math.Float64bits(oracle) || math.Float64bits(got) != math.Float64bits(fresh) {
			t.Errorf("epoch %d (rebuilt %v, %d pages): cached silhouette %v, uncached %v, fresh monitor %v",
				e.Seq, e.Rebuilt, e.Model.Len(), got, oracle, fresh)
		}
		epochs++
		if e.Rebuilt {
			rebuilt++
		}
	}}, nil, nil)
	apply := func(rec stream.Record) {
		t.Helper()
		if err := l.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	apply(stream.Record{Docs: docs[:genesis]})
	for i, d := range docs[genesis:] {
		if i > 0 && i%rebuildEvery == 0 {
			apply(stream.Record{})
		}
		apply(stream.Record{Docs: []stream.Doc{d}})
	}
	e := l.Current()
	if got := len(m.Sample()); got != sampleSize || e.Model.Len() < 3*sampleSize/2 {
		t.Fatalf("reservoir holds %d of %d pages, want it full with pages to spare", got, e.Model.Len())
	}
	if rebuilt < 2 || epochs < 100 {
		t.Fatalf("%d epochs, %d rebuilt: the sequence does not exercise replacements and rebuilds", epochs, rebuilt)
	}
}

// countingSpace counts Sim calls. The cache fill shards across
// goroutines, hence the atomic.
type countingSpace struct {
	cluster.Space
	calls *atomic.Int64
}

func (c countingSpace) Sim(a, b cluster.Point) float64 {
	c.calls.Add(1)
	return c.Space.Sim(a, b)
}

// TestSimCallsScaleWithReplacedSlots pins the monitor's work, not only
// its value: with r filled slots, the first observation makes r² Sim
// calls, a Rebuilt epoch r² plus churn's k centroid comparisons, an
// epoch that fills or replaces d slots d(2r−d) plus k, and an epoch
// with no new page exactly k.
func TestSimCallsScaleWithReplacedSlots(t *testing.T) {
	const sampleSize, k = 80, 2
	s := twoBlobSpace(300)
	m := New(Config{SampleSize: sampleSize, Seed: 4})
	var calls atomic.Int64
	observe := func(n int, rebuilt bool) (sims int64, r, d int) {
		before := make(map[int]bool)
		for _, p := range m.Sample() {
			before[p] = true
		}
		sub := &cluster.VectorSpace{Vecs: s.Vecs[:n]}
		e := twoBlobEpoch(int64(n), sub)
		e.Space = countingSpace{Space: sub, calls: &calls}
		e.Rebuilt = rebuilt
		calls.Store(0)
		m.ObserveEpoch(e, t0)
		after := m.Sample()
		for _, p := range after {
			if !before[p] {
				d++
			}
		}
		return calls.Load(), len(after), d
	}
	full := func(r, d int) int { return r*r + k }
	incremental := func(r, d int) int { return d*(2*r-d) + k }
	steps := []struct {
		name    string
		n       int
		rebuilt bool
		want    func(r, d int) int
	}{
		{"first observation", 50, false, func(r, d int) int { return r * r }},
		{"no new page", 50, false, incremental},
		{"reservoir filling", 70, false, incremental},
		{"reservoir replacing", 160, false, incremental},
		{"no new page, full reservoir", 160, false, incremental},
		{"rebuilt", 160, true, full},
		{"rebuilt with new pages", 240, true, full},
		{"replacing after rebuild", 300, false, incremental},
	}
	prev := 0
	for _, st := range steps {
		sims, r, d := observe(st.n, st.rebuilt)
		if want := st.want(r, d); sims != int64(want) {
			t.Errorf("%s (%d pages, %d slots, %d new): %d Sim calls, want %d", st.name, st.n, r, d, sims, want)
		}
		// An epoch that adds pages must change slots here, or its
		// incremental count degenerates to churn alone.
		if st.n > prev && d == 0 {
			t.Errorf("%s: %d new pages changed no slot", st.name, st.n-prev)
		}
		prev = st.n
	}
}

// skewSpace makes a space asymmetric: Sim(a, b) gains a term that
// changes sign with the argument order.
type skewSpace struct{ cluster.Space }

type skewPoint struct {
	p cluster.Point
	i int
}

func (s skewSpace) Point(i int) cluster.Point { return skewPoint{s.Space.Point(i), i} }

func (s skewSpace) Sim(a, b cluster.Point) float64 {
	pa, pb := a.(skewPoint), b.(skewPoint)
	return s.Space.Sim(pa.p, pb.p) + float64(pa.i-pb.i)/1e4
}

// TestCacheKeepsSimArgumentOrder: every cached cell holds Sim in the
// order cluster.Silhouette asks for it, so the cache matches the
// uncached path bit for bit even in a space where Sim(a, b) != Sim(b, a).
func TestCacheKeepsSimArgumentOrder(t *testing.T) {
	s := twoBlobSpace(120)
	m := New(Config{SampleSize: 40, Seed: 6})
	for _, n := range []int{30, 60, 90, 120} {
		e := twoBlobEpoch(int64(n), &cluster.VectorSpace{Vecs: s.Vecs[:n]})
		e.Space, e.Centroids, e.Rebuilt = skewSpace{e.Space}, nil, n == 90
		got := m.ObserveEpoch(e, t0).Silhouette
		if want := sampledSilhouette(e.Space, e.Assign, e.K, m.res); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d pages: cached silhouette %v, uncached %v", n, got, want)
		}
	}
}
